package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
)

// frameOverhead is the bytes a frame adds around its payload.
const frameOverhead = 24

// AppendFrame appends one record frame to dst:
//
//	magic | u32 version | u64 payload length | payload | u64 FNV-1a(payload)
//
// all little-endian.  The magic guards against foreign bytes before any
// payload is parsed and is the anchor a reader resynchronizes on after a
// corrupt frame; a version bump makes old frames fail as a mismatch
// instead of being misread.
func AppendFrame(dst []byte, magic [4]byte, version uint32, payload []byte) []byte {
	dst = append(slices.Grow(dst, len(payload)+frameOverhead), magic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, version)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	h := fnv.New64a()
	h.Write(payload)
	return binary.LittleEndian.AppendUint64(dst, h.Sum64())
}

// ReadFrame parses the frame at the front of buf and returns its payload
// (aliasing buf) and the bytes the frame spans.  A header, version,
// length or checksum mismatch fails; a claimed payload longer than
// maxPayload counts as truncation, so a corrupt length field can never
// demand more than the caller allows.
func ReadFrame(buf []byte, magic [4]byte, version uint32, maxPayload uint64) (payload []byte, n int, err error) {
	if len(buf) < frameOverhead || [4]byte(buf[:4]) != magic {
		return nil, 0, errors.New("bad header")
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != version {
		return nil, 0, fmt.Errorf("format v%d, want v%d", v, version)
	}
	plen := binary.LittleEndian.Uint64(buf[8:])
	if plen > maxPayload || plen > uint64(len(buf)-frameOverhead) {
		return nil, 0, errors.New("truncated")
	}
	payload = buf[16 : 16+plen]
	h := fnv.New64a()
	h.Write(payload)
	if h.Sum64() != binary.LittleEndian.Uint64(buf[16+plen:]) {
		return nil, 0, errors.New("checksum mismatch")
	}
	return payload, int(plen) + frameOverhead, nil
}
