package control

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Reply framing. Every request — record batch, aggregate batch or
// control package — is answered with one binary reply body under the
// usual 4-byte big-endian length prefix:
//
//	[0]     magic, replyMagic (0xC5 — distinct from '{' (0x7B), batchMagic
//	        (0xB2) and aggMagic (0xA5), so a reply can never be mistaken
//	        for a request)
//	[1]     status, replyOK or replyError
//	[2:6]   BatchAck.QueueDepth, uint32 LE
//	[6:10]  BatchAck.QueueCap, uint32 LE
//	[10:]   error message bytes (replyError only; an ok reply ends at 10)
//
// A sink that reports no backpressure answers with zero depth and cap,
// which the agent reads as "no pressure signal".
const (
	replyMagic      = 0xC5
	replyOK         = 0
	replyError      = 1
	replyHeaderSize = 10
)

// appendReply appends the reply body for one request to dst: an error
// reply carrying err's message when err is non-nil, else an ok reply
// carrying ack.
func appendReply(dst []byte, ack BatchAck, err error) []byte {
	status := byte(replyOK)
	if err != nil {
		status = replyError
	}
	dst = append(dst, replyMagic, status)
	dst = binary.LittleEndian.AppendUint32(dst, clampUint32(ack.QueueDepth))
	dst = binary.LittleEndian.AppendUint32(dst, clampUint32(ack.QueueCap))
	if err != nil {
		dst = append(dst, err.Error()...)
	}
	return dst
}

// decodeReply decodes a reply body. An error reply comes back as a
// *RemoteError alongside the ack fields it carried; a body that is not a
// well-formed reply — truncated, an unknown magic or status, or an ok
// reply with trailing bytes — is a plain error, never a zero-value
// success.
func decodeReply(body []byte) (BatchAck, error) {
	if len(body) < replyHeaderSize {
		return BatchAck{}, fmt.Errorf("control: reply of %d bytes, want at least %d", len(body), replyHeaderSize)
	}
	if body[0] != replyMagic {
		return BatchAck{}, fmt.Errorf("control: not a reply frame (magic %#x)", body[0])
	}
	le := binary.LittleEndian
	ack := BatchAck{QueueDepth: int(le.Uint32(body[2:])), QueueCap: int(le.Uint32(body[6:]))}
	switch body[1] {
	case replyOK:
		if len(body) != replyHeaderSize {
			return BatchAck{}, errors.New("control: ok reply carries trailing bytes")
		}
		return ack, nil
	case replyError:
		return ack, &RemoteError{Msg: string(body[replyHeaderSize:])}
	default:
		return BatchAck{}, fmt.Errorf("control: unknown reply status %d", body[1])
	}
}

func clampUint32(v int) uint32 {
	if v < 0 {
		return 0
	}
	if uint64(v) > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}
