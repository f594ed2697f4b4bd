package live

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"sync"

	"psclock/internal/core"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// Frame is one message on the wire between live nodes. SentClock is the
// sender's clock reading at the SENDMSG action — the tag the send buffer
// S_ij,ε attaches (§4.2.1), which the receiver's hold queue compares
// against its own clock (the receive buffer R_ji,ε). SentReal is the
// sender's real elapsed time at the send, used only for delay measurement:
// within one process all nodes share the runtime's monotonic epoch, so
// receive-side real time minus SentReal is the true link delay. Chan is
// the logical register channel: many register instances multiplex one
// physical link per node pair, and the [d1, d2] delay measurement and the
// receive buffer's clock-tag hold apply per logical channel.
type Frame struct {
	From, To  ta.NodeID
	Chan      int
	SentClock simtime.Time
	SentReal  simtime.Time
	Body      any
}

// Peer frames cross MeshTransport's TCP links in a
// hand-rolled varint format, as the client wire does (server.go): the
// header fields From, To, Chan, SentClock and SentReal as signed varints,
// then the body's tag byte and the body's own fields from the codec its
// package registered with core.RegisterBody. Every field is
// self-delimiting, so frames need no length prefix.

// bodyCodec returns the codec for a frame body, or the error
// MeshTransport.Send returns for a body type nothing registered.
func bodyCodec(body any) (*core.BodyCodec, error) {
	c, ok := core.BodyCodecOf(body)
	if !ok {
		return nil, fmt.Errorf("live: frame body %T has no registered codec", body)
	}
	return c, nil
}

// appendFrame appends f's encoding to dst.
func appendFrame(dst []byte, f Frame) ([]byte, error) {
	c, err := bodyCodec(f.Body)
	if err != nil {
		return dst, err
	}
	dst = binary.AppendVarint(dst, int64(f.From))
	dst = binary.AppendVarint(dst, int64(f.To))
	dst = binary.AppendVarint(dst, int64(f.Chan))
	dst = binary.AppendVarint(dst, int64(f.SentClock))
	dst = binary.AppendVarint(dst, int64(f.SentReal))
	dst = append(dst, c.Tag)
	return c.Append(dst, f.Body), nil
}

// readFrame decodes one frame written by appendFrame. Truncated input,
// an overlong varint or an unknown body tag is an error.
func readFrame(br *bufio.Reader) (Frame, error) {
	var h [5]int64
	for i := range h {
		v, err := binary.ReadVarint(br)
		if err != nil {
			return Frame{}, err
		}
		h[i] = v
	}
	tag, err := br.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	c, ok := core.BodyCodecFor(tag)
	if !ok {
		return Frame{}, fmt.Errorf("live: unknown frame body tag %d", tag)
	}
	body, err := c.Read(br)
	if err != nil {
		return Frame{}, err
	}
	return Frame{
		From: ta.NodeID(h[0]), To: ta.NodeID(h[1]), Chan: int(h[2]),
		SentClock: simtime.Time(h[3]), SentReal: simtime.Time(h[4]),
		Body: body,
	}, nil
}

// writeFrame encodes f straight into bw's free space. Send admits only
// bodies with a registered codec, so a codec error here is a broken
// invariant, never a connection fault.
func writeFrame(bw *bufio.Writer, f Frame) error {
	buf, err := appendFrame(bw.AvailableBuffer(), f)
	if err != nil {
		panic(err)
	}
	_, err = bw.Write(buf)
	return err
}

// Transport moves frames between nodes. Start installs the delivery
// callback and begins accepting; Send may be called concurrently from
// every node goroutine after Start; Close stops delivery and releases
// resources: once Close returns, deliver is not called again and Send
// returns an error. The delivery callback must be safe for concurrent use and
// must not block indefinitely (the runtime's per-node inboxes are deep,
// and closed-loop workloads bound the frames in flight).
type Transport interface {
	Start(deliver func(Frame)) error
	Send(f Frame) error
	Close() error
	// Name describes the transport for reports.
	Name() string
}

// ChanTransport is the in-process transport: a buffered channel drained by
// a dispatcher goroutine. It is the fastest honest transport available to
// a single process — frames still cross a scheduler boundary, so delays
// are small but real, never zero by fiat.
type ChanTransport struct {
	mu     sync.Mutex
	ch     chan Frame
	done   chan struct{}
	closed bool
}

var _ Transport = (*ChanTransport)(nil)

// NewChanTransport returns an in-process transport with the given send
// buffer depth (≤ 0 selects a default deep enough for closed-loop
// workloads on complete graphs).
func NewChanTransport(buffer int) *ChanTransport {
	if buffer <= 0 {
		buffer = 4096
	}
	return &ChanTransport{ch: make(chan Frame, buffer), done: make(chan struct{})}
}

// Start implements Transport.
func (t *ChanTransport) Start(deliver func(Frame)) error {
	go func() {
		defer close(t.done)
		for f := range t.ch {
			deliver(f)
		}
	}()
	return nil
}

// Send implements Transport.
func (t *ChanTransport) Send(f Frame) error {
	// The closed check and the channel send stay under one lock so Close
	// cannot close the channel between them (a send on a closed channel
	// panics; an error return is the contract).
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("live: send on closed transport")
	}
	t.ch <- f
	return nil
}

// Close implements Transport: no more sends are accepted, queued frames
// are drained, and the dispatcher exits.
func (t *ChanTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.ch)
	t.mu.Unlock()
	<-t.done
	return nil
}

// Name implements Transport.
func (t *ChanTransport) Name() string { return "chan" }
