package netsim

// Len returns the number of registered peers.
func (n *Network) Len() int { return len(n.hosts) }

// MessageCount returns the number of RPCs of the given type delivered so
// far.
func (n *Network) MessageCount(t MsgType) int64 {
	if t < 0 || t >= msgTypeCount {
		return 0
	}
	return n.msgCount[t]
}

// MustParseLinkProfile is ParseLinkProfile for known-good literals.
func MustParseLinkProfile(spec string) LinkProfile {
	p, err := ParseLinkProfile(spec)
	if err != nil {
		panic(err)
	}
	return p
}
