package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own open-loop client. It speaks the register server's
// varint wire protocol directly: a request is (uvarint id, uvarint reg, op
// byte, and for a write the signed varints writer and seq); a response is
// (uvarint id, op byte, and for a read's RETURN the signed varints writer
// and seq). Every field is self-delimiting, so messages carry no length
// prefix. 'r' asks for a lin-tier read, 'w' a write; the server answers
// 'R' (RETURN) or 'A' (ACK).

// scriptOp is one operation of a connection's seeded script.
type scriptOp struct {
	at    time.Duration // scheduled instant, from the phase start
	reg   int
	write bool
}

// makeScript plays the seeded op script for one connection: Poisson
// arrivals (independent users, hence open loop) at rate ops/s over dur,
// zipf(s, v = regs/2) register choice, writes with probability writeRatio.
func makeScript(seed int64, conn int, rate float64, dur time.Duration, regs int, zipfS, writeRatio float64) []scriptOp {
	rng := rand.New(rand.NewSource(seed*7919 + int64(conn)*104729 + 17))
	var zipf *rand.Zipf
	if regs > 1 && zipfS > 1 {
		zipf = rand.NewZipf(rng, zipfS, max(float64(regs)/2, 1), uint64(regs-1))
	}
	out := make([]scriptOp, 0, int(rate*dur.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		op := scriptOp{at: at}
		if zipf != nil {
			op.reg = int(zipf.Uint64())
		} else if regs > 1 {
			op.reg = rng.Intn(regs)
		}
		op.write = rng.Float64() < writeRatio
		out = append(out, op)
	}
}

// opRec is what the client measured for one scripted op. Times are
// nanoseconds since the cluster epoch; recv stays 0 until the response.
type opRec struct {
	sched, sent, recv int64
	seq               uint32 // the op's sequence number at its port
}

// inFlightCap bounds one connection's unanswered ops. The fixed phases
// run far below it (a check fails the run if it ever binds there); under
// a capacity probe past saturation it turns an unbounded backlog into
// generator lateness, which the probe's latency limit then catches.
const inFlightCap = 8192

// connClient drives one connection through its script.
type connClient struct {
	node int
	ops  []scriptOp
	recs []opRec

	published atomic.Int64 // recs[:published] are final on the sender side
	received  atomic.Int64
	freed     chan struct{}

	capBound   int   // times the in-flight cap made the sender wait
	reads      int64 // Read calls on the socket
	bytesIn    int64
	bytesOut   int64
	err        error
	writeValue int // next written value's sequence number
}

// countingConn counts the receive side's socket reads and bytes.
type countingConn struct {
	net.Conn
	reads, bytes *int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	*c.reads++
	*c.bytes += int64(n)
	return n, err
}

// run plays the script against an established connection, starting at
// phase start (relative to epoch), and returns once every sent op was
// answered or the drain grace ran out.
func (c *connClient) run(conn net.Conn, epoch, start time.Time, grace time.Duration) {
	c.recs = make([]opRec, len(c.ops))
	c.freed = make(chan struct{}, 1)
	seqs := make(map[int]uint32)
	startNs := int64(start.Sub(epoch))
	for i, op := range c.ops {
		c.recs[i].sched = startNs + int64(op.at)
		seqs[op.reg]++
		c.recs[i].seq = seqs[op.reg]
	}

	recvDone := make(chan struct{})
	var sent atomic.Int64
	sendDone := make(chan struct{})
	var rerr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(recvDone)
		rerr = c.receive(countingConn{conn, &c.reads, &c.bytesIn}, epoch, &sent, sendDone)
	}()

	bw := bufio.NewWriterSize(conn, 64<<10)
	var buf []byte
	var werr error
send:
	for i, op := range c.ops {
		due := start.Add(op.at)
		if wait := time.Until(due); wait > 0 {
			if werr = bw.Flush(); werr != nil {
				break
			}
			time.Sleep(wait)
		}
		for int64(i)-c.received.Load() >= inFlightCap {
			c.capBound++
			if werr = bw.Flush(); werr != nil {
				break send
			}
			select {
			case <-c.freed:
			case <-recvDone:
				break send
			}
		}
		buf = binary.AppendUvarint(buf[:0], uint64(i))
		buf = binary.AppendUvarint(buf, uint64(op.reg))
		if op.write {
			c.writeValue++
			buf = append(buf, 'w')
			buf = binary.AppendVarint(buf, int64(c.node))
			buf = binary.AppendVarint(buf, int64(c.writeValue))
		} else {
			buf = append(buf, 'r')
		}
		c.recs[i].sent = int64(time.Since(epoch))
		c.published.Store(int64(i + 1))
		if _, werr = bw.Write(buf); werr != nil {
			break
		}
		c.bytesOut += int64(len(buf))
		sent.Add(1)
	}
	if werr == nil {
		werr = bw.Flush()
	}
	// The deadline ends the receiver's wait for answers that never come.
	if err := conn.SetReadDeadline(time.Now().Add(grace)); err != nil {
		werr = errors.Join(werr, err)
	}
	close(sendDone)
	wg.Wait()
	c.err = errors.Join(werr, rerr)
}

// protocolError is a response that breaks the wire protocol: an id never
// sent, a second response for an id, a response of the wrong kind or an
// unknown op byte. Unlike an op left unanswered, it is a server defect
// whatever the load.
type protocolError struct{ msg string }

func (e *protocolError) Error() string { return e.msg }

func protocolErrorf(format string, args ...any) error {
	return &protocolError{fmt.Sprintf(format, args...)}
}

// receive matches responses to sent requests until every sent op is
// answered, stamping each op's receive time.
func (c *connClient) receive(r io.Reader, epoch time.Time, sent *atomic.Int64, sendDone <-chan struct{}) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var got int64
	for {
		select {
		case <-sendDone:
			if got >= sent.Load() {
				return nil
			}
		default:
		}
		if got >= int64(len(c.ops)) {
			return nil
		}
		id, kind, err := readResp(br)
		if err != nil {
			if got >= sent.Load() {
				select {
				case <-sendDone:
					return nil
				default:
				}
			}
			return fmt.Errorf("client for node %d: %d of %d sent ops answered: %w", c.node, got, sent.Load(), err)
		}
		now := int64(time.Since(epoch))
		if id >= uint64(c.published.Load()) {
			return protocolErrorf("client for node %d: response id %d was never sent", c.node, id)
		}
		rec := &c.recs[id]
		if rec.recv != 0 {
			return protocolErrorf("client for node %d: second response for id %d", c.node, id)
		}
		want := byte('R')
		if c.ops[id].write {
			want = 'A'
		}
		if kind != want {
			return protocolErrorf("client for node %d: id %d answered %q, want %q", c.node, id, kind, want)
		}
		rec.recv = now
		got++
		c.received.Store(got)
		select {
		case c.freed <- struct{}{}:
		default:
		}
	}
}

// readResp decodes one response: its id and op byte; a RETURN's value is
// consumed and dropped (the online checker judges values).
func readResp(br *bufio.Reader) (uint64, byte, error) {
	id, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, err
	}
	kind, err := br.ReadByte()
	if err != nil {
		return 0, 0, err
	}
	switch kind {
	case 'A':
	case 'R':
		for i := 0; i < 2; i++ {
			if _, err := binary.ReadVarint(br); err != nil {
				return 0, 0, err
			}
		}
	default:
		return 0, 0, protocolErrorf("bad response op %q", kind)
	}
	return id, kind, nil
}
