package live

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MeshTransport is one node's end of the TCP peer transport: a listener
// for its peers' links and one outbound link per peer — the node's own
// send buffer S_ij,ε and receive buffer R_ji,ε of §4.2.1, on its own
// links. The fleet runs one per OS process; TCPTransport hosts n of them
// in one process.
//
// Each link is a stream of varint-encoded frames (see appendFrame), and
// all logical register channels to a peer multiplex its single
// connection — Frame.Chan distinguishes them — so R register instances
// cost the same number of sockets as one. Frames a node sends itself
// (§6.1's broadcast includes the sender) never touch a socket: a queue
// drained by a delivery goroutine calls the same deliver callback.
//
// Links are dialed eagerly where possible: Start dials every peer whose
// address SetPeer has already supplied, and fails if a dial fails. Dial
// plus handshake takes hundreds of microseconds on loopback, and a lazy
// dial would charge that setup to the first frame's [d1, d2] delay
// measurement. Peers learned later — a fleet member not up yet, or a
// crashed one the control plane replaced — are dialed lazily by the
// link's writer, with bounded exponential backoff. SetPeer may swap a
// peer's address mid-run; the writer redials the new address with the
// same queue, and every dial after a link's first counts as a reconnect.
//
// Send never blocks: it enqueues on the link's writer (or the self
// queue) and returns an error if the queue is full or the transport is
// closed, or if the body type has no registered codec. Each writer
// blocks for a frame, then drains everything already queued into one
// buffered write, so under pipelined load the per-frame syscall cost
// amortizes away.
type MeshTransport struct {
	self int
	n    int
	ln   net.Listener

	peers []*meshPeer // indexed by node; nil at self

	deliver func(Frame)
	selfCh  chan Frame

	// inbound holds the accepted connections, which Close cuts so it
	// never waits on a peer to hang up; nil once Close has begun.
	inMu    sync.Mutex
	inbound map[net.Conn]struct{}

	started    atomic.Bool
	reconnects atomic.Int64
	dropped    atomic.Int64
	done       chan struct{}
	wg         sync.WaitGroup
	closeOnce  sync.Once
}

type meshPeer struct {
	ch chan Frame

	mu     sync.Mutex
	addr   string
	conn   net.Conn // current writer conn, closed by SetPeer to force redial
	gen    int      // bumped by SetPeer so the writer notices address swaps
	dialed bool     // the link has connected before: the next dial is a reconnect
}

const (
	// meshQueueDepth bounds each link's outbound queue and the self
	// queue. Closed-loop workloads keep at most a few frames per link in
	// flight; pipelined workloads keep roughly one frame per in-flight
	// operation, so the depth is sized to the deepest pipelines pscserve
	// drives before Send starts reporting overload.
	meshQueueDepth = 8192
	meshBufSize    = 32 << 10
	meshBackoffMin = 10 * time.Millisecond
	meshBackoffMax = 640 * time.Millisecond
	meshIdlePoll   = 20 * time.Millisecond
)

var _ Transport = (*MeshTransport)(nil)

// NewMeshTransport listens on listenAddr (a fresh loopback port if
// empty) for node self of an n-node cluster. Peer addresses start empty;
// SetPeer supplies them before or during the run.
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
		selfCh:  make(chan Frame, meshQueueDepth),
		inbound: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	for j := range t.peers {
		if j != self {
			t.peers[j] = &meshPeer{ch: make(chan Frame, meshQueueDepth)}
		}
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
	if p.addr != addr {
		p.addr = addr
		p.gen++
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
	}
	p.mu.Unlock()
}

// Reconnects returns the number of successful re-dials (dials after each
// link's first) across all links.
func (t *MeshTransport) Reconnects() int64 { return t.reconnects.Load() }

// Dropped returns the number of frames Send refused because their queue
// was full.
func (t *MeshTransport) Dropped() int64 { return t.dropped.Load() }

// Start implements Transport: accept inbound links, start the
// self-delivery loop, and launch one writer per outbound link, first
// dialing every peer whose address is known. A failed Start leaves
// cleanup to Close.
func (t *MeshTransport) Start(deliver func(Frame)) error {
	if !t.started.CompareAndSwap(false, true) {
		return fmt.Errorf("live: transport already started")
	}
	t.deliver = deliver
	t.wg.Add(2)
	go t.acceptLoop()
	go t.selfLoop()
	for j, p := range t.peers {
		if p == nil {
			continue
		}
		var conn net.Conn
		addr, gen := p.target()
		if addr != "" {
			var err error
			if conn, err = t.connect(p, addr, gen); err != nil {
				return fmt.Errorf("live: dial %d→%d: %w", t.self, j, err)
			}
		}
		t.wg.Add(1)
		go t.writeLoop(p, conn, gen)
	}
	return nil
}

// Send implements Transport: enqueue the frame on its link's writer, or
// on the self-delivery queue.
func (t *MeshTransport) Send(f Frame) error {
	select {
	case <-t.done:
		return fmt.Errorf("live: send on closed transport")
	default:
	}
	if _, err := bodyCodec(f.Body); err != nil {
		return err
	}
	var ch chan Frame
	switch to := int(f.To); {
	case to == t.self:
		ch = t.selfCh
	case to >= 0 && to < t.n:
		ch = t.peers[to].ch
	default:
		return fmt.Errorf("live: send to unknown node %v", f.To)
	}
	select {
	case ch <- f:
		return nil
	default:
		// The peer has been unreachable for long, or the node is
		// overloaded: blocking here would wedge the node loop. The loss is
		// counted; the checker judges whether the run survived it.
		t.dropped.Add(1)
		return fmt.Errorf("live: outbound queue %v→%v full", f.From, f.To)
	}
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

// readLoop decodes one inbound link's frames until EOF or shutdown.
func (t *MeshTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.inMu.Lock()
		delete(t.inbound, conn)
		t.inMu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, meshBufSize)
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

// selfLoop delivers the node's frames to itself, in send order, until
// shutdown.
func (t *MeshTransport) selfLoop() {
	defer t.wg.Done()
	for {
		select {
		case f := <-t.selfCh:
			t.deliver(f)
		case <-t.done:
			return
		}
	}
}

// connect dials addr once and installs the connection as p's current
// one, unless a SetPeer swap since gen was read made it stale.
func (t *MeshTransport) connect(p *meshPeer, addr string, gen int) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gen != gen {
		conn.Close()
		return nil, fmt.Errorf("peer address changed while dialing %s", addr)
	}
	p.conn = conn
	if p.dialed {
		t.reconnects.Add(1)
	}
	p.dialed = true
	return conn, nil
}

// redial connects p to its current address, waiting while none is known
// and backing off on failure. It returns a nil conn once the transport
// is closing.
func (t *MeshTransport) redial(p *meshPeer) (net.Conn, int) {
	backoff := meshBackoffMin
	for {
		select {
		case <-t.done:
			return nil, 0
		default:
		}
		addr, gen := p.target()
		wait := meshIdlePoll
		if addr != "" {
			conn, err := t.connect(p, addr, gen)
			if err == nil {
				return conn, gen
			}
			wait = backoff
			if backoff *= 2; backoff > meshBackoffMax {
				backoff = meshBackoffMax
			}
		}
		select {
		case <-t.done:
			return nil, 0
		case <-time.After(wait):
		}
	}
}

// target returns p's current address and its SetPeer generation.
func (p *meshPeer) target() (string, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr, p.gen
}

// writeLoop feeds one outbound link until shutdown, starting on conn if
// Start dialed it. When the connection breaks or SetPeer swaps the
// address, the writer redials and resends the frame it could not write
// first. Frames already flushed into a connection that then broke are
// lost: a lost register update is indistinguishable from a message the
// model never delivered on time, and the online checker, not the
// transport, judges whether the run survived.
func (t *MeshTransport) writeLoop(p *meshPeer, conn net.Conn, gen int) {
	defer t.wg.Done()
	bw := bufio.NewWriterSize(nil, meshBufSize)
	var (
		f     Frame
		retry bool // f was not written on the last connection
	)
	for {
		if conn == nil {
			if conn, gen = t.redial(p); conn == nil {
				return
			}
		}
		bw.Reset(conn)
		for {
			if !retry {
				select {
				case f = <-p.ch:
				case <-t.done:
					conn.Close()
					return
				}
			}
			if _, cur := p.target(); cur != gen {
				retry = true // carry f to the new address
				break
			}
			var err error
			if f, retry, err = writeBatch(bw, p.ch, f); err != nil {
				break
			}
		}
		conn.Close()
		conn = nil
	}
}

// writeBatch encodes f and every frame already queued behind it, then
// flushes: one write syscall per batch under pipelined load (bufio
// flushes by itself if a batch outgrows its buffer). If a frame fails to
// encode, the connection is gone; that frame comes back with retry set.
func writeBatch(bw *bufio.Writer, ch <-chan Frame, f Frame) (Frame, bool, error) {
	for {
		if err := writeFrame(bw, f); err != nil {
			return f, true, err
		}
		select {
		case f = <-ch:
		default:
			return Frame{}, false, bw.Flush()
		}
	}
}
