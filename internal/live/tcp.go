package live

import "fmt"

// TCPTransport hosts an n-node cluster in one process over loopback TCP:
// one MeshTransport per node, each told every other member's address
// before Start, so Start dials all n(n−1) links before any frame exists
// to be charged for the handshake. Send routes a frame to its sender's
// member.
type TCPTransport struct {
	members []*MeshTransport
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport opens n loopback listeners on ephemeral ports, one per
// node, and wires every member to the others.
func NewTCPTransport(n int) (*TCPTransport, error) {
	t := &TCPTransport{members: make([]*MeshTransport, 0, n)}
	for i := 0; i < n; i++ {
		m, err := NewMeshTransport(i, n, "")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("live: listen for node %d: %w", i, err)
		}
		t.members = append(t.members, m)
	}
	for _, m := range t.members {
		for j, peer := range t.members {
			m.SetPeer(j, peer.Addr())
		}
	}
	return t, nil
}

// Start implements Transport: start every member, dialing its links. A
// failed Start leaves cleanup to Close.
func (t *TCPTransport) Start(deliver func(Frame)) error {
	for _, m := range t.members {
		if err := m.Start(deliver); err != nil {
			return err
		}
	}
	return nil
}

// Send implements Transport.
func (t *TCPTransport) Send(f Frame) error {
	if int(f.From) < 0 || int(f.From) >= len(t.members) {
		return fmt.Errorf("live: send from unknown node %v", f.From)
	}
	return t.members[f.From].Send(f)
}

// Reconnects returns the members' link re-dials after dial or write
// failures — counted in the live report rather than failing the run.
func (t *TCPTransport) Reconnects() int64 {
	var sum int64
	for _, m := range t.members {
		sum += m.Reconnects()
	}
	return sum
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	for _, m := range t.members {
		m.Close()
	}
	return nil
}

// Name implements Transport.
func (t *TCPTransport) Name() string { return "tcp" }
