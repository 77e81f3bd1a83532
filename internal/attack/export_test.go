package attack

// MustParse is Parse for vetted specs; it panics on error.
func MustParse(spec string) Params {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns the attack intervention names in registration order.
func Names() []string {
	out := make([]string, len(family))
	for i := range family {
		out[i] = family[i].Name
	}
	return out
}
