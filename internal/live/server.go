package live

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"psclock/internal/register"
	"psclock/internal/ta"
)

// wireReq is one client request to the register server. ID is a
// client-chosen correlation tag echoed on the response, which is what
// lets a connection pipeline many requests; Reg selects the register
// instance.
type wireReq struct {
	ID  uint64
	Reg int
	// Op is register.ActRead or register.ActWrite.
	Op  string
	Val register.Value // the written value; ignored for reads
	// Tier is the consistency tier the read selects on the wire: the op
	// byte is 'r' for a lin-tier read, 's' for a seq-tier read. The server
	// validates it against the register's configured tier — a read naming
	// the wrong tier would be charged one price and verified at another,
	// so a mismatch tears the connection down. Writes cost the same on
	// both tiers and carry no tier byte.
	Tier register.Tier
}

// wireResp is the server's answer: RETURN with the read value, or ACK,
// tagged with the request's correlation ID.
type wireResp struct {
	ID  uint64
	Op  string
	Val register.Value
}

// The client-server wire format is hand-rolled varints rather than gob:
// at pipelined rates the codec runs a hundred thousand times a second on
// a host the system under test shares, and gob's per-message reflection
// was a measurable slice of the core. Requests are (uvarint id,
// uvarint reg, op byte, value for writes), responses (uvarint id,
// op byte, value for returns); values are signed varints
// (register.AppendValue) since the initial value's writer is
// ta.NoNode = −1. Every field is
// self-delimiting, so messages need no length prefix.

func appendWireReq(dst []byte, r wireReq) []byte {
	dst = binary.AppendUvarint(dst, r.ID)
	dst = binary.AppendUvarint(dst, uint64(r.Reg))
	switch {
	case r.Op == register.ActWrite:
		dst = append(dst, 'w')
		dst = register.AppendValue(dst, r.Val)
	case r.Tier == register.TierSeq:
		dst = append(dst, 's')
	default:
		dst = append(dst, 'r')
	}
	return dst
}

func readWireReq(br *bufio.Reader) (wireReq, error) {
	var r wireReq
	id, err := binary.ReadUvarint(br)
	if err != nil {
		return r, err
	}
	reg, err := binary.ReadUvarint(br)
	if err != nil {
		return r, err
	}
	op, err := br.ReadByte()
	if err != nil {
		return r, err
	}
	r.ID, r.Reg = id, int(reg)
	switch op {
	case 'r':
		r.Op = register.ActRead
	case 's':
		r.Op = register.ActRead
		r.Tier = register.TierSeq
	case 'w':
		r.Op = register.ActWrite
		if r.Val, err = register.ReadValue(br); err != nil {
			return r, err
		}
	default:
		return r, fmt.Errorf("live: bad request op %q", op)
	}
	return r, nil
}

func appendWireResp(dst []byte, r wireResp) []byte {
	dst = binary.AppendUvarint(dst, r.ID)
	if r.Op == register.ActReturn {
		dst = append(dst, 'R')
		dst = register.AppendValue(dst, r.Val)
	} else {
		dst = append(dst, 'A')
	}
	return dst
}

func readWireResp(br *bufio.Reader) (wireResp, error) {
	var r wireResp
	id, err := binary.ReadUvarint(br)
	if err != nil {
		return r, err
	}
	op, err := br.ReadByte()
	if err != nil {
		return r, err
	}
	r.ID = id
	switch op {
	case 'R':
		r.Op = register.ActReturn
		if r.Val, err = register.ReadValue(br); err != nil {
			return r, err
		}
	case 'A':
		r.Op = register.ActAck
	default:
		return r, fmt.Errorf("live: bad response op %q", op)
	}
	return r, nil
}

// Server exposes the live registers over TCP: one listener per node, a
// varint-framed stream of wireReq/wireResp per connection, any number of
// register instances behind each node. A connection's reader validates
// each request and hands it straight to its node; the node enforces the
// alternation condition of §6.1 — one operation in flight per (node,
// register) port, later ones queued in arrival order — which the monitor
// checks and the online checker's windows rely on. A connection may
// pipeline requests across ports freely: requests to different ports
// proceed concurrently, and responses return on the connection tagged
// with the request's ID in completion order.
//
// Backpressure is per connection: at most connInFlight requests may be
// admitted and not yet answered on the wire. A client pipelining deeper
// blocks in its connection reader — TCP backpressure, not an error — and
// the node loop never waits on a client.
type Server struct {
	rt    *Runtime
	lns   []net.Listener
	addrs []string
	tiers []register.Tier // per-register tiers; nil means all lin

	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[*svcConn]struct{}
	closed bool
}

// svcConn is one client connection's shared state: the encoded responses
// the node loops append and the writer drains, the in-flight bound, and
// the teardown signal both the reader and writer observe.
type svcConn struct {
	conn net.Conn

	mu   sync.Mutex
	out  []byte // encoded responses awaiting the writer
	nOut int    // responses in out
	kick chan struct{}

	// slots holds one token per request admitted and not yet written
	// back: the reader puts before submitting, the writer takes after
	// the response's Write.
	slots chan struct{}

	done chan struct{}
	once sync.Once
}

func (c *svcConn) close() {
	c.once.Do(func() {
		close(c.done)
		c.conn.Close()
	})
}

// reply appends the response to the connection's buffer and wakes its
// writer. It runs on the node's goroutine and never blocks on the client.
func (c *svcConn) reply(id uint64, name string, payload any) {
	r := wireResp{ID: id, Op: name}
	if v, ok := payload.(register.Value); ok {
		r.Val = v
	}
	c.mu.Lock()
	c.out = appendWireResp(c.out, r)
	c.nOut++
	c.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// connInFlight bounds one connection's requests admitted but not yet
// answered on the wire.
const connInFlight = 1024

// NewServer opens one loopback listener per hosted node. It may be called
// before or after rt.Start; the server installs no runtime hooks.
func NewServer(rt *Runtime) (*Server, error) {
	n := rt.opts.N
	s := &Server{
		rt:    rt,
		lns:   make([]net.Listener, n),
		addrs: make([]string, n),
		conns: make(map[*svcConn]struct{}),
	}
	for i := 0; i < n; i++ {
		if !rt.hostsNode(i) {
			continue // a fleet daemon serves clients only for its own node
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("live: server listen for node %d: %w", i, err)
		}
		s.lns[i] = ln
		s.addrs[i] = ln.Addr().String()
	}
	return s, nil
}

// SetTiers installs the per-register consistency tiers the wire protocol
// validates reads against: a read must name its register's tier ('r' for
// lin, 's' for seq) or the connection is closed. nil (the default) means
// every register is lin-tier, the stack's historical behavior. Must be
// called before Start; len(tiers) must equal the runtime's register count.
func (s *Server) SetTiers(tiers []register.Tier) {
	s.tiers = tiers
}

// Addrs returns the per-node client-facing addresses.
func (s *Server) Addrs() []string {
	out := make([]string, len(s.addrs))
	copy(out, s.addrs)
	return out
}

// Start begins accepting client connections. Call after rt.Start.
func (s *Server) Start() {
	for i, ln := range s.lns {
		if ln == nil {
			continue
		}
		i, ln := i, ln
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					s.serve(ta.NodeID(i), conn)
				}()
			}
		}()
	}
}

// serve handles one client connection against one node: a reader that
// validates requests and submits them to the node, and a writer that
// sends the responses back. Either side's failure tears both down.
func (s *Server) serve(nodeID ta.NodeID, conn net.Conn) {
	c := &svcConn{
		conn:  conn,
		kick:  make(chan struct{}, 1),
		slots: make(chan struct{}, connInFlight),
		done:  make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		c.close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer c.close()
		// Responses coalesce: take everything the node loops appended
		// since the last pass and write it in one syscall, so a deeply
		// pipelined connection costs one write per burst rather than one
		// per response.
		var buf []byte
		for {
			select {
			case <-c.kick:
			case <-c.done:
				return
			}
			c.mu.Lock()
			buf, c.out = c.out, buf[:0]
			k := c.nOut
			c.nOut = 0
			c.mu.Unlock()
			if k == 0 {
				continue
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
			for ; k > 0; k-- {
				<-c.slots
			}
		}
	}()
	br := bufio.NewReaderSize(conn, 16<<10)
	nReg := s.rt.opts.Registers
	for {
		req, err := readWireReq(br)
		if err != nil {
			return
		}
		if req.Reg < 0 || req.Reg >= nReg {
			return
		}
		if req.Op == register.ActRead {
			want := register.TierLin
			if s.tiers != nil {
				want = s.tiers[req.Reg]
			}
			if req.Tier != want {
				return // tier mismatch: wrong price, wrong checker
			}
		}
		var payload any
		if req.Op == register.ActWrite {
			payload = req.Val
		}
		select {
		case c.slots <- struct{}{}:
		case <-c.done:
			return
		}
		if s.rt.invoke(nodeID, req.Reg, invocation{name: req.Op, payload: payload, to: c, id: req.ID}) != nil {
			return // runtime stopped
		}
	}
}

// Close stops accepting and tears down every connection. Call before
// rt.Stop so no reader submits into a stopping runtime. Operations already
// submitted keep running until rt.Stop; their responses go nowhere.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.close()
	}
	s.mu.Unlock()
	for _, ln := range s.lns {
		if ln != nil {
			ln.Close()
		}
	}
	s.wg.Wait()
}
