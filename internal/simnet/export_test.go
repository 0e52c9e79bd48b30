package simnet

// LiveStreams reports how many dialed streams the network tracks for
// SetDown to reset.
func LiveStreams(n *Network) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.live)
}
