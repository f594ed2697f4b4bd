package live

import (
	"sync"
	"testing"
	"time"

	"psclock/internal/register"
	"psclock/internal/ta"
)

// TestMeshFullQueueDrops checks that a link whose peer address never
// arrives queues meshQueueDepth frames, then refuses the next one with
// an error and counts it as dropped.
func TestMeshFullQueueDrops(t *testing.T) {
	m, err := NewMeshTransport(0, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Start(func(Frame) {}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < meshQueueDepth; k++ {
		if err := m.Send(Frame{From: 0, To: 1, Body: register.Value{Seq: k}}); err != nil {
			t.Fatalf("send #%d to an unwired peer: %v", k, err)
		}
	}
	if err := m.Send(Frame{From: 0, To: 1, Body: register.Value{Seq: meshQueueDepth}}); err == nil {
		t.Error("send to a full queue returned nil")
	}
	if d := m.Dropped(); d != 1 {
		t.Errorf("Dropped() = %d, want 1", d)
	}
}

// TestMeshRewire replaces member 1 of a 3-member mesh with a fresh
// incarnation on a new port, as the fleet's control plane does after a
// crash, and re-wires the survivors with SetPeer. Frames member 0 sends
// after the swap must reach the new incarnation in FIFO order over a
// redialed link.
func TestMeshRewire(t *testing.T) {
	const n = 3
	type inbox struct {
		mu  sync.Mutex
		seq []int
	}
	record := func(in *inbox) func(Frame) {
		return func(f Frame) {
			if f.From != 0 {
				return
			}
			in.mu.Lock()
			in.seq = append(in.seq, f.Body.(register.Value).Seq)
			in.mu.Unlock()
		}
	}
	// waitFor polls until in holds want frames or the deadline passes.
	waitFor := func(in *inbox, want int) []int {
		deadline := time.Now().Add(10 * time.Second)
		for {
			in.mu.Lock()
			got := append([]int(nil), in.seq...)
			in.mu.Unlock()
			if len(got) >= want || time.Now().After(deadline) {
				return got
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	send := func(m *MeshTransport, from, k int) {
		t.Helper()
		f := Frame{From: ta.NodeID(from), To: 1, Body: register.Value{Writer: ta.NodeID(from), Seq: k}}
		if err := m.Send(f); err != nil {
			t.Fatalf("send %d→1 #%d: %v", from, k, err)
		}
	}

	ms := make([]*MeshTransport, n)
	for i := range ms {
		m, err := NewMeshTransport(i, n, "")
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ms[i] = m
	}
	for _, m := range ms {
		for j, peer := range ms {
			m.SetPeer(j, peer.Addr())
		}
	}
	var old, fresh inbox
	for i, m := range ms {
		deliver := func(Frame) {}
		if i == 1 {
			deliver = record(&old)
		}
		if err := m.Start(deliver); err != nil {
			t.Fatal(err)
		}
	}
	send(ms[0], 0, -1)
	if got := waitFor(&old, 1); len(got) != 1 {
		t.Fatalf("first incarnation received %v, want one frame", got)
	}

	ms[1].Close()
	m1, err := NewMeshTransport(1, n, "")
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	for j, peer := range ms {
		m1.SetPeer(j, peer.Addr())
	}
	if err := m1.Start(record(&fresh)); err != nil {
		t.Fatal(err)
	}
	ms[0].SetPeer(1, m1.Addr())
	ms[2].SetPeer(1, m1.Addr())

	const k = 500
	for i := 0; i < k; i++ {
		send(ms[0], 0, i)
		send(ms[2], 2, i) // 2→1 frames share the new incarnation's inbound side
	}
	got := waitFor(&fresh, k)
	if len(got) != k {
		t.Fatalf("new incarnation received %d of %d frames from node 0", len(got), k)
	}
	for i, s := range got {
		if s != i {
			t.Fatalf("frame %d delivered at position %d (FIFO broken)", s, i)
		}
	}
	if r := ms[0].Reconnects(); r < 1 {
		t.Errorf("member 0 Reconnects() = %d after re-wiring, want ≥ 1", r)
	}
}
