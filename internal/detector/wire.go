package detector

import (
	"encoding/binary"
	"io"

	"psclock/internal/core"
)

// Register the heartbeat body's codec with the live transports (see
// internal/register/wire.go): its sequence number as one signed varint.
func init() {
	core.RegisterBody(3,
		func(dst []byte, h heartbeat) []byte { return binary.AppendVarint(dst, int64(h.Seq)) },
		func(r io.ByteReader) (heartbeat, error) {
			seq, err := binary.ReadVarint(r)
			return heartbeat{Seq: int(seq)}, err
		})
}
