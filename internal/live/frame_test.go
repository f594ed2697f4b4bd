package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psclock/internal/core"
	_ "psclock/internal/detector" // registers the heartbeat body codec
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

func decodeFrame(b []byte) (Frame, error) {
	return readFrame(bufio.NewReader(bytes.NewReader(b)))
}

// registeredBodies returns one body per registered codec, built by
// decoding extreme field values through the codec itself, so the test
// covers body types it cannot name (they are unexported).
func registeredBodies(t *testing.T) map[byte]any {
	t.Helper()
	var fields []byte
	for _, v := range []int64{int64(ta.NoNode), math.MinInt64, math.MaxInt64, -3, 1 << 40} {
		fields = binary.AppendVarint(fields, v)
	}
	out := map[byte]any{}
	for tag := 0; tag < 256; tag++ {
		c, ok := core.BodyCodecFor(byte(tag))
		if !ok {
			continue
		}
		body, err := c.Read(bytes.NewReader(fields))
		if err != nil {
			t.Fatalf("tag %d: decode sample body: %v", tag, err)
		}
		out[byte(tag)] = body
	}
	for _, tag := range []byte{1, 2, 3} {
		if out[tag] == nil {
			t.Fatalf("no codec registered under tag %d", tag)
		}
	}
	return out
}

// TestFrameRoundTrip sends every registered body type, plus the initial
// value whose writer is ta.NoNode, through appendFrame/readFrame and
// requires the decoded frame to equal the original and to re-encode to
// the same bytes.
func TestFrameRoundTrip(t *testing.T) {
	bodies := []any{register.Initial, register.Value{Writer: 2, Seq: math.MaxInt64}}
	for _, b := range registeredBodies(t) {
		bodies = append(bodies, b)
	}
	headers := []Frame{
		{From: 0, To: 2, Chan: 63, SentClock: -5 * simtime.Time(simtime.Millisecond), SentReal: 1 << 50},
		{From: ta.NoNode, To: ta.NoNode, Chan: -1, SentClock: math.MinInt64, SentReal: math.MaxInt64},
	}
	for _, h := range headers {
		for _, body := range bodies {
			f := h
			f.Body = body
			enc, err := appendFrame(nil, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeFrame(enc)
			if err != nil {
				t.Fatalf("%+v: %v", f, err)
			}
			if !reflect.DeepEqual(got, f) {
				t.Fatalf("round trip: got %+v, want %+v", got, f)
			}
			again, _ := appendFrame(nil, got)
			if !bytes.Equal(again, enc) {
				t.Fatalf("%+v re-encodes to %x, want %x", f, again, enc)
			}
		}
	}
	if _, err := appendFrame(nil, Frame{Body: struct{}{}}); err == nil {
		t.Fatal("appendFrame accepted an unregistered body type")
	}
}

// FuzzReadFrame feeds readFrame arbitrary bytes. It must never panic; a
// frame it accepts must survive re-encoding, and every strict prefix of
// that encoding (a truncated frame) must be an error.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	for _, b := range []any{register.Initial, register.Value{Writer: 1, Seq: 42}} {
		enc, err := appendFrame(nil, Frame{From: 1, To: 2, Chan: 3, SentClock: -7, SentReal: 9, Body: b})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0xff})                 // unknown tag
	f.Add(bytes.Repeat([]byte{0xff}, 12))              // overlong varint
	f.Add([]byte{2, 4, 6, 8, 10, 1, 0x80, 0x80, 0x80}) // body cut mid-varint
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data)
		if err != nil {
			return
		}
		enc, err := appendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", fr, err)
		}
		again, err := decodeFrame(enc)
		if err != nil || !reflect.DeepEqual(again, fr) {
			t.Fatalf("re-encoded frame decodes to %+v (%v), want %+v", again, err, fr)
		}
		for i := range enc {
			if _, err := decodeFrame(enc[:i]); err == nil {
				t.Fatalf("truncated frame %x (%d of %d bytes) decoded", enc[:i], i, len(enc))
			}
		}
	})
}

// transportUnderTest is one transport wiring of a small cluster: start
// starts every node's transport, send routes a frame to its sender's
// transport, close shuts every transport down.
type transportUnderTest struct {
	start func(deliver func(Frame)) error
	send  func(Frame) error
	close func()
}

// connectedLinks counts m's outbound links that hold a connection.
func connectedLinks(m *MeshTransport) int {
	links := 0
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			links++
		}
		p.mu.Unlock()
	}
	return links
}

// TestTransportConformance runs one table of contract checks against both
// TCP wirings — TCPTransport's in-process host, whose members know every
// address before Start and dial eagerly, and bare MeshTransport members
// wired after Start, which dial lazily: per-pair FIFO order, self-frames
// reaching deliver, exactly-once delivery, rejection of unregistered
// bodies, Send erroring after Close, no delivery once Close has returned,
// a second Start erroring, and a self-Send erroring rather than blocking
// once a parked deliver has let the self queue fill.
func TestTransportConformance(t *testing.T) {
	const n = 3
	cases := []struct {
		name  string
		build func(t *testing.T) transportUnderTest
	}{
		{"tcp", func(t *testing.T) transportUnderTest {
			tr, err := NewTCPTransport(n)
			if err != nil {
				t.Fatal(err)
			}
			start := func(deliver func(Frame)) error {
				if err := tr.Start(deliver); err != nil {
					return err
				}
				links := 0
				for _, m := range tr.members {
					links += connectedLinks(m)
				}
				if links != n*(n-1) {
					t.Errorf("%d links connected when Start returned, want n(n−1) = %d", links, n*(n-1))
				}
				return nil
			}
			return transportUnderTest{start: start, send: tr.Send, close: func() { tr.Close() }}
		}},
		{"mesh", func(t *testing.T) transportUnderTest {
			ms := make([]*MeshTransport, n)
			for i := range ms {
				m, err := NewMeshTransport(i, n, "")
				if err != nil {
					t.Fatal(err)
				}
				ms[i] = m
			}
			return transportUnderTest{
				start: func(deliver func(Frame)) error {
					for _, m := range ms {
						if err := m.Start(deliver); err != nil {
							return err
						}
						for j, peer := range ms {
							m.SetPeer(j, peer.Addr())
						}
					}
					return nil
				},
				send: func(f Frame) error { return ms[f.From].Send(f) },
				close: func() {
					for _, m := range ms {
						m.Close()
					}
				},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const perPair = 300
			const want = n * n * perPair
			var (
				mu       sync.Mutex
				got      [n][n][]int
				total    atomic.Int64
				closed   atomic.Bool
				lateSeen atomic.Int64
				all      = make(chan struct{})
			)
			deliver := func(f Frame) {
				if closed.Load() {
					lateSeen.Add(1)
					return
				}
				v := f.Body.(register.Value)
				mu.Lock()
				got[f.From][f.To] = append(got[f.From][f.To], v.Seq)
				mu.Unlock()
				if total.Add(1) == want {
					close(all)
				}
			}
			tr := tc.build(t)
			if err := tr.start(deliver); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if !closed.Load() {
					tr.close()
				}
			}()

			if err := tr.send(Frame{From: 0, To: 1, Body: struct{ X int }{1}}); err == nil {
				t.Error("Send accepted a body type with no registered codec")
			}
			var wg sync.WaitGroup
			for from := 0; from < n; from++ {
				wg.Add(1)
				go func(from int) {
					defer wg.Done()
					for k := 0; k < perPair; k++ {
						for to := 0; to < n; to++ {
							f := Frame{From: ta.NodeID(from), To: ta.NodeID(to), Chan: k % 4, Body: register.Value{Writer: ta.NodeID(from), Seq: k}}
							if err := tr.send(f); err != nil {
								t.Errorf("send %d→%d #%d: %v", from, to, k, err)
								return
							}
						}
					}
				}(from)
			}
			wg.Wait()
			select {
			case <-all:
			case <-time.After(10 * time.Second):
			}
			// A duplicate would arrive after the expected count; give it
			// time to land in got before the per-pair check.
			time.Sleep(20 * time.Millisecond)
			mu.Lock()
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					seq := got[from][to]
					if len(seq) != perPair {
						t.Errorf("pair %d→%d: %d of %d frames delivered", from, to, len(seq), perPair)
						continue
					}
					for k, s := range seq {
						if s != k {
							t.Errorf("pair %d→%d: frame %d delivered at position %d (FIFO broken)", from, to, s, k)
							break
						}
					}
				}
			}
			mu.Unlock()

			tr.close()
			closed.Store(true)
			if err := tr.send(Frame{From: 0, To: 1, Body: register.Initial}); err == nil {
				t.Error("Send after Close returned nil")
			}
			if err := tr.send(Frame{From: 0, To: 0, Body: register.Initial}); err == nil {
				t.Error("self Send after Close returned nil")
			}
			time.Sleep(20 * time.Millisecond)
			if l := lateSeen.Load(); l != 0 {
				t.Errorf("%d frames delivered after Close returned", l)
			}

			t.Run("double Start", func(t *testing.T) {
				tr := tc.build(t)
				defer tr.close()
				if err := tr.start(func(Frame) {}); err != nil {
					t.Fatal(err)
				}
				if err := tr.start(func(Frame) {}); err == nil {
					t.Error("second Start returned nil")
				}
			})

			t.Run("self queue full", func(t *testing.T) {
				tr := tc.build(t)
				defer tr.close()
				park := make(chan struct{})
				defer close(park) // before close: Close waits for the parked deliver
				if err := tr.start(func(Frame) { <-park }); err != nil {
					t.Fatal(err)
				}
				// One frame parks deliver, meshQueueDepth fill the self queue,
				// and the next must be refused.
				errc := make(chan error, 1)
				go func() {
					for k := 0; k < meshQueueDepth+2; k++ {
						if err := tr.send(Frame{From: 0, To: 0, Body: register.Value{Seq: k}}); err != nil {
							errc <- err
							return
						}
					}
					errc <- nil
				}()
				select {
				case err := <-errc:
					if err == nil {
						t.Errorf("%d self Sends against a parked deliver all returned nil", meshQueueDepth+2)
					}
				case <-time.After(10 * time.Second):
					t.Error("self Send blocked on a full self queue")
				}
			})
		})
	}
}
