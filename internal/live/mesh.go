package live

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MeshTransport is the fleet's inter-daemon transport: one node per OS
// process, each process listening on its own TCP address, with peer
// addresses supplied — and re-supplied after a crashed peer is replaced —
// by the control plane. It differs from TCPTransport (all nodes in one
// process, addresses fixed at construction) in three ways that the fleet
// runtime needs:
//
//   - Lazy, retried dials: a peer may not be up yet when the first frame
//     for it is queued, or may be down for hundreds of milliseconds while
//     the plane restarts it. The writer retries with bounded exponential
//     backoff instead of failing the run.
//   - Re-wiring: SetPeer replaces a peer's address mid-run and tears down
//     the stale connection; the writer redials the new address with the
//     same frames-in-flight queue.
//   - Reconnect accounting: every successful dial after the first is
//     counted, so the live report records how often links healed instead
//     of treating a broken write as fatal.
//
// Frames to self never touch the network (§6.1's broadcast includes the
// sender). Frames to peers use the same varint frame codec as
// TCPTransport (see appendFrame), and Send rejects a body type with no
// registered codec. A full queue to an unreachable peer drops frames;
// after Close, Send returns an error.
type MeshTransport struct {
	self int
	n    int
	ln   net.Listener

	peers []*meshPeer

	deliver func(Frame)
	selfCh  chan Frame

	// inbound holds the accepted connections, which Close cuts so it
	// never waits on a peer to hang up; nil once Close has begun.
	inMu    sync.Mutex
	inbound map[net.Conn]struct{}

	reconnects atomic.Int64
	done       chan struct{}
	wg         sync.WaitGroup
	closeOnce  sync.Once
}

type meshPeer struct {
	to int
	ch chan Frame

	mu   sync.Mutex
	addr string
	conn net.Conn // current writer conn, closed by SetPeer to force redial
	gen  int      // bumped by SetPeer so the writer notices address swaps
}

const (
	meshQueueDepth = 8192
	meshBackoffMin = 10 * time.Millisecond
	meshBackoffMax = 640 * time.Millisecond
	meshIdlePoll   = 20 * time.Millisecond
	meshFlushDelay = 200 * time.Microsecond
	meshSelfDepth  = 8192
)

var _ Transport = (*MeshTransport)(nil)

// NewMeshTransport listens on a fresh loopback-or-any port for node self
// of an n-node fleet. Peer addresses start empty; the plane supplies them
// via SetPeer before (and during) the run.
func NewMeshTransport(self, n int, listenAddr string) (*MeshTransport, error) {
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("mesh listen: %w", err)
	}
	t := &MeshTransport{
		self:    self,
		n:       n,
		ln:      ln,
		peers:   make([]*meshPeer, n),
		selfCh:  make(chan Frame, meshSelfDepth),
		inbound: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	for j := 0; j < n; j++ {
		if j == self {
			continue
		}
		t.peers[j] = &meshPeer{to: j, ch: make(chan Frame, meshQueueDepth)}
	}
	return t, nil
}

// Addr returns the address the transport accepts peer connections on.
func (t *MeshTransport) Addr() string { return t.ln.Addr().String() }

// SetPeer installs (or replaces) peer j's dial address. Replacing an
// address closes the current connection so the writer redials; queued
// frames carry over to the new connection.
func (t *MeshTransport) SetPeer(j int, addr string) {
	if j < 0 || j >= t.n || j == t.self {
		return
	}
	p := t.peers[j]
	p.mu.Lock()
	changed := p.addr != addr
	p.addr = addr
	if changed {
		p.gen++
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
	}
	p.mu.Unlock()
}

// Reconnects returns the number of successful re-dials (dials after each
// peer's first) across all links.
func (t *MeshTransport) Reconnects() int64 { return t.reconnects.Load() }

// Start implements Transport: begins accepting inbound peer connections
// and launches one writer per outbound link plus the self-delivery loop.
func (t *MeshTransport) Start(deliver func(Frame)) error {
	t.deliver = deliver

	t.wg.Add(1)
	go t.acceptLoop()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			select {
			case f := <-t.selfCh:
				t.deliver(f)
			case <-t.done:
				return
			}
		}
	}()

	for j := 0; j < t.n; j++ {
		if j == t.self {
			continue
		}
		p := t.peers[j]
		t.wg.Add(1)
		go t.writeLoop(p)
	}
	return nil
}

// Send implements Transport. Frames to unknown-yet peers queue; a full
// queue drops the frame (the link is partitioned or the peer is long
// dead — backpressure here would wedge the node loop).
func (t *MeshTransport) Send(f Frame) error {
	select {
	case <-t.done:
		return fmt.Errorf("mesh send: transport closed")
	default:
	}
	if _, err := bodyCodec(f.Body); err != nil {
		return err
	}
	if int(f.To) == t.self {
		select {
		case t.selfCh <- f:
		case <-t.done:
		}
		return nil
	}
	if int(f.To) < 0 || int(f.To) >= t.n {
		return fmt.Errorf("mesh send: no peer %d", f.To)
	}
	select {
	case t.peers[f.To].ch <- f:
	default:
		// Queue full: the peer has been unreachable for a long time.
		// Dropping keeps the sender live; the checker sees the loss.
	}
	return nil
}

// Close implements Transport.
func (t *MeshTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		t.ln.Close()
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
			}
			p.mu.Unlock()
		}
		t.inMu.Lock()
		for conn := range t.inbound {
			conn.Close()
		}
		t.inbound = nil
		t.inMu.Unlock()
	})
	t.wg.Wait()
	return nil
}

// Name implements Transport.
func (t *MeshTransport) Name() string { return "mesh-tcp" }

func (t *MeshTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
				// Transient accept error; keep serving.
				time.Sleep(meshIdlePoll)
				continue
			}
		}
		t.inMu.Lock()
		if t.inbound == nil {
			t.inMu.Unlock()
			conn.Close()
			continue
		}
		t.inbound[conn] = struct{}{}
		t.inMu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *MeshTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.inMu.Lock()
		delete(t.inbound, conn)
		t.inMu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		f, err := readFrame(br)
		if err != nil {
			return
		}
		if int(f.To) != t.self {
			continue
		}
		select {
		case <-t.done:
			return
		default:
		}
		t.deliver(f)
	}
}

// dial connects to p's current address, waiting while no address is
// known and backing off on failure. Returns nil when the transport is
// closing. first reports whether this peer has ever connected, for
// reconnect accounting.
func (t *MeshTransport) dial(p *meshPeer, first *bool) (net.Conn, int) {
	backoff := meshBackoffMin
	for {
		select {
		case <-t.done:
			return nil, 0
		default:
		}
		p.mu.Lock()
		addr := p.addr
		gen := p.gen
		p.mu.Unlock()
		if addr == "" {
			select {
			case <-t.done:
				return nil, 0
			case <-time.After(meshIdlePoll):
			}
			continue
		}
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			select {
			case <-t.done:
				return nil, 0
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > meshBackoffMax {
				backoff = meshBackoffMax
			}
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		p.mu.Lock()
		// The address may have changed while dialing; only install the
		// conn if it still matches this generation.
		if p.gen != gen {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		p.conn = conn
		p.mu.Unlock()
		if *first {
			*first = false
		} else {
			t.reconnects.Add(1)
		}
		return conn, gen
	}
}

func (t *MeshTransport) writeLoop(p *meshPeer) {
	defer t.wg.Done()
	first := true
	var pending []Frame
	for {
		conn, gen := t.dial(p, &first)
		if conn == nil {
			return
		}
		bw := bufio.NewWriterSize(conn, 64<<10)

		// Write until the connection breaks or the address changes.
	connLoop:
		for {
			var f Frame
			if len(pending) > 0 {
				f = pending[0]
				pending = pending[1:]
			} else {
				select {
				case f = <-p.ch:
				case <-t.done:
					bw.Flush()
					conn.Close()
					return
				}
			}
			if err := writeFrame(bw, f); err != nil {
				// The frame may be half-written; redelivery of a clock-
				// tagged update is harmless (R_ji,ε dedups by hold), but a
				// truncated frame dies with the far end's connection, so
				// requeue this frame for the next conn.
				pending = append([]Frame{f}, pending...)
				break connLoop
			}
			// Batch whatever else is queued before flushing.
		drain:
			for i := 0; i < 256; i++ {
				select {
				case nf := <-p.ch:
					if err := writeFrame(bw, nf); err != nil {
						pending = append([]Frame{nf}, pending...)
						break connLoop
					}
				default:
					break drain
				}
			}
			if err := bw.Flush(); err != nil {
				break connLoop
			}
			p.mu.Lock()
			stale := p.gen != gen
			p.mu.Unlock()
			if stale {
				break connLoop
			}
			if meshFlushDelay > 0 && len(p.ch) == 0 {
				select {
				case <-time.After(meshFlushDelay):
				case <-t.done:
					conn.Close()
					return
				}
			}
		}
		conn.Close()
		select {
		case <-t.done:
			return
		default:
		}
	}
}
