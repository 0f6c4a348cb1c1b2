package obs

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Span blob codec: the compact binary form of a span list an owner node
// returns (base64, in a header of its reply to a forward) so the origin
// node can stitch the owner's child spans into its trace. Node attribution is not encoded — the
// origin knows which node answered and stamps it on merge (AddRemote).
//
// Layout (little-endian): u16 span count, then per span
//
//	kind u8 | tier u8 | candidates u32 | start u64 | dur u64
//
// Start/Dur are nanoseconds as two's-complement int64.

// MaxWireSpans bounds how many spans DecodeSpans accepts — the codec's
// corruption guard, comfortably above MaxSpans.
const MaxWireSpans = 64

const spanWireSize = 1 + 1 + 4 + 8 + 8

// AppendSpans appends the blob encoding of spans to dst.
func AppendSpans(dst []byte, spans []Span) []byte {
	if len(spans) > MaxWireSpans {
		spans = spans[:MaxWireSpans]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(spans)))
	for _, s := range spans {
		dst = append(dst, byte(s.Kind), s.Tier)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Candidates))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Start))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Dur))
	}
	return dst
}

// DecodeSpans parses a blob produced by AppendSpans.
func DecodeSpans(b []byte) ([]Span, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("obs: span blob truncated")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if n > MaxWireSpans {
		return nil, fmt.Errorf("obs: span blob count %d exceeds %d", n, MaxWireSpans)
	}
	if len(b) != 2+n*spanWireSize {
		return nil, fmt.Errorf("obs: span blob length %d, want %d", len(b), 2+n*spanWireSize)
	}
	spans := make([]Span, n)
	off := 2
	for i := range spans {
		spans[i] = Span{
			Kind:       SpanKind(b[off]),
			Tier:       b[off+1],
			Candidates: int32(binary.LittleEndian.Uint32(b[off+2:])),
			Start:      time.Duration(binary.LittleEndian.Uint64(b[off+6:])),
			Dur:        time.Duration(binary.LittleEndian.Uint64(b[off+14:])),
		}
		off += spanWireSize
	}
	return spans, nil
}
