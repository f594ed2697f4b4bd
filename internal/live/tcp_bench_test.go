package live

import (
	"bufio"
	"bytes"
	"testing"

	"psclock/internal/register"
	"psclock/internal/simtime"
)

// Codec micro-benchmarks and allocation pins for the two varint wire
// formats: the peer frame codec MeshTransport's links carry (appendFrame /
// readFrame) and the client↔server request/response codec. Both encode
// into caller-owned scratch and decode from a persistent bufio.Reader, so
// the steady state allocates nothing beyond the decoded frame's boxed
// body.

// benchFrame is a representative inter-node frame: a register.Value body
// (a registered wire type) with clock tag and delay-measurement stamps
// populated.
func benchFrame() Frame {
	return Frame{
		From:      1,
		To:        2,
		Chan:      7,
		SentClock: simtime.Time(12345678),
		SentReal:  simtime.Time(12345000),
		Body:      register.Value{Writer: 1, Seq: 42},
	}
}

// BenchmarkFrameCodec measures one peer frame's round trip: encode into
// reused scratch, decode from a persistent reader.
func BenchmarkFrameCodec(b *testing.B) {
	f := benchFrame()
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if scratch, err = appendFrame(scratch[:0], f); err != nil {
			b.Fatal(err)
		}
		buf.Write(scratch)
		if _, err := readFrame(br); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameCodecAllocs pins the frame codec's steady-state allocations:
// none to encode, at most one to decode (boxing the body into Frame.Body).
func TestFrameCodecAllocs(t *testing.T) {
	f := benchFrame()
	scratch, err := appendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { scratch, _ = appendFrame(scratch[:0], f) }); n != 0 {
		t.Errorf("encode: %v allocs/frame, want 0", n)
	}
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	if n := testing.AllocsPerRun(1000, func() {
		buf.Write(scratch)
		if _, err := readFrame(br); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("decode: %v allocs/frame, want ≤ 1", n)
	}
}

// BenchmarkWireCodec measures the client↔server varint request/response
// codec round trip (appendWireReq → readWireReq, appendWireResp →
// readWireResp). The append side reuses the caller's scratch and the
// read side a persistent bufio.Reader, so the steady state allocates
// nothing.
func BenchmarkWireCodec(b *testing.B) {
	req := wireReq{ID: 99, Reg: 7, Op: register.ActWrite, Val: register.Value{Writer: 1, Seq: 42}}
	resp := wireResp{ID: 99, Op: register.ActReturn, Val: register.Value{Writer: 1, Seq: 42}}
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scratch = appendWireReq(scratch[:0], req)
		scratch = appendWireResp(scratch, resp)
		buf.Write(scratch)
		if _, err := readWireReq(br); err != nil {
			b.Fatal(err)
		}
		if _, err := readWireResp(br); err != nil {
			b.Fatal(err)
		}
	}
}
