package timeline

// MustParse is Parse for trusted specs; it panics on error.
func MustParse(spec string) Schedule {
	s, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}
