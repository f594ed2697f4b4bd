package core

import (
	"fmt"
	"io"
	"reflect"
)

// Message bodies cross live peer links as a tag byte followed by the
// body's own fields. Each body type registers its codec once, from an init
// function in the package that declares it (register/wire.go,
// detector/wire.go); the live transports look a codec up by the body's
// dynamic type on send and by tag on receive. Registration happens only
// during package initialization, so lookups need no lock.
//
// Tags in use: 1 register.Value, 2 the register's UPDATE, 3 the
// detector's heartbeat.

// BodyCodec encodes and decodes one registered body type.
type BodyCodec struct {
	// Tag is the byte that names the body type on the wire.
	Tag byte
	// Append appends the body's fields to dst.
	Append func(dst []byte, body any) []byte
	// Read decodes the body's fields.
	Read func(r io.ByteReader) (any, error)
}

var (
	bodyByType = map[reflect.Type]*BodyCodec{}
	bodyByTag  [256]*BodyCodec
)

// RegisterBody registers T's wire codec under tag. A reused tag or type
// panics: two packages sharing a tag would misdecode each other's frames.
func RegisterBody[T any](tag byte, enc func(dst []byte, body T) []byte, dec func(r io.ByteReader) (T, error)) {
	typ := reflect.TypeOf((*T)(nil)).Elem()
	if bodyByTag[tag] != nil || bodyByType[typ] != nil {
		panic(fmt.Sprintf("core: body codec for %v (tag %d) registered twice", typ, tag))
	}
	c := &BodyCodec{
		Tag:    tag,
		Append: func(dst []byte, body any) []byte { return enc(dst, body.(T)) },
		Read: func(r io.ByteReader) (any, error) {
			v, err := dec(r)
			if err != nil {
				return nil, err
			}
			return v, nil
		},
	}
	bodyByTag[tag] = c
	bodyByType[typ] = c
}

// BodyCodecOf returns the codec registered for body's dynamic type.
func BodyCodecOf(body any) (*BodyCodec, bool) {
	c, ok := bodyByType[reflect.TypeOf(body)]
	return c, ok
}

// BodyCodecFor returns the codec registered under tag.
func BodyCodecFor(tag byte) (*BodyCodec, bool) {
	c := bodyByTag[tag]
	return c, c != nil
}
