package attack

// Names returns the attack intervention names in registration order.
func Names() []string {
	out := make([]string, len(family))
	for i := range family {
		out[i] = family[i].Name
	}
	return out
}
