package intern

// Len returns the number of interned identifiers (including the
// pre-interned zero value, so Len is always ≥ 1).
func (t *Table[K, H]) Len() int { return len(t.rev) }
