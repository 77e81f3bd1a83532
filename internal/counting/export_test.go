package counting

// Rows returns the dataset's row count.
func (d *Dataset) Rows() int { return len(d.rows) }

// Crawls returns the number of distinct crawls.
func (d *Dataset) Crawls() int { return len(d.crawls) }
