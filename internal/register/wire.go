package register

import (
	"encoding/binary"
	"io"

	"psclock/internal/core"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// The live transports carry message bodies through the codecs registered
// with core.RegisterBody: a tag byte, then the body's fields as signed
// varints (a value's writer may be ta.NoNode = −1).
func init() {
	core.RegisterBody(1, AppendValue, ReadValue)
	core.RegisterBody(2, appendUpdate, readUpdate)
}

// AppendValue appends v as two signed varints, writer then sequence
// number. The client wire (live/server.go) encodes values the same way.
func AppendValue(dst []byte, v Value) []byte {
	dst = binary.AppendVarint(dst, int64(v.Writer))
	return binary.AppendVarint(dst, int64(v.Seq))
}

// ReadValue decodes a value written by AppendValue.
func ReadValue(r io.ByteReader) (Value, error) {
	w, err := binary.ReadVarint(r)
	if err != nil {
		return Value{}, err
	}
	seq, err := binary.ReadVarint(r)
	if err != nil {
		return Value{}, err
	}
	return Value{Writer: ta.NodeID(w), Seq: int(seq)}, nil
}

func appendUpdate(dst []byte, m updateMsg) []byte {
	return binary.AppendVarint(AppendValue(dst, m.V), int64(m.T))
}

func readUpdate(r io.ByteReader) (updateMsg, error) {
	v, err := ReadValue(r)
	if err != nil {
		return updateMsg{}, err
	}
	t, err := binary.ReadVarint(r)
	if err != nil {
		return updateMsg{}, err
	}
	return updateMsg{V: v, T: simtime.Time(t)}, nil
}
