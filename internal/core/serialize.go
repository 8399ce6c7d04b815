package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"

	"repro/internal/bitvec"
	"repro/internal/encoding"
)

// Persistence: a versioned, checksummed binary format so warehouse
// indexes survive process restarts. Layout:
//
//	magic "EBIX" | version u8 | payload length u64 | payload | crc32(payload)
//
// payload:
//
//	flags u8 (bit0 reserveVoid, bit1 useDC, bit2 hasNullCode)
//	k u32 | n u64 | nullCode u32 | deleted u64
//	mapping: count u32, then per entry: code u32, valueLen u32, value bytes
//	vectors: k blobs, each: blobLen u32, bitvec.MarshalBinary bytes

const (
	serializeMagic   = "EBIX"
	serializeVersion = 1
	maxValueBytes    = 1 << 20
	maxPayloadBytes  = 1 << 34
)

// ValueCodec converts domain values to and from bytes for persistence.
type ValueCodec[V comparable] interface {
	Encode(v V) ([]byte, error)
	Decode(data []byte) (V, error)
}

// StringCodec persists string domains.
type StringCodec struct{}

// Encode implements ValueCodec.
func (StringCodec) Encode(v string) ([]byte, error) { return []byte(v), nil }

// Decode implements ValueCodec.
func (StringCodec) Decode(data []byte) (string, error) { return string(data), nil }

// Int64Codec persists int64 domains.
type Int64Codec struct{}

// Encode implements ValueCodec.
func (Int64Codec) Encode(v int64) ([]byte, error) {
	return []byte(strconv.FormatInt(v, 10)), nil
}

// Decode implements ValueCodec.
func (Int64Codec) Decode(data []byte) (int64, error) {
	return strconv.ParseInt(string(data), 10, 64)
}

// IntCodec persists int domains.
type IntCodec struct{}

// Encode implements ValueCodec.
func (IntCodec) Encode(v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil }

// Decode implements ValueCodec.
func (IntCodec) Decode(data []byte) (int, error) { return strconv.Atoi(string(data)) }

// Save writes the index to w in the versioned binary format.
func Save[V comparable](w io.Writer, ix *Index[V], codec ValueCodec[V]) error {
	var payload bytes.Buffer
	var flags byte
	if ix.reserveVoid {
		flags |= 1
	}
	if ix.useDC {
		flags |= 2
	}
	if ix.hasNullCode {
		flags |= 4
	}
	payload.WriteByte(flags)
	writeU32(&payload, uint32(ix.K()))
	writeU64(&payload, uint64(ix.n))
	writeU32(&payload, ix.nullCode)
	writeU64(&payload, uint64(ix.deleted))

	values := ix.mapping.Values()
	writeU32(&payload, uint32(len(values)))
	for _, v := range values {
		code, _ := ix.mapping.CodeOf(v)
		data, err := codec.Encode(v)
		if err != nil {
			return fmt.Errorf("core: encoding value %v: %w", v, err)
		}
		if len(data) > maxValueBytes {
			return fmt.Errorf("core: encoded value exceeds %d bytes", maxValueBytes)
		}
		writeU32(&payload, code)
		writeU32(&payload, uint32(len(data)))
		payload.Write(data)
	}
	for _, vec := range ix.vectors {
		blob, err := vec.MarshalBinary()
		if err != nil {
			return err
		}
		writeU32(&payload, uint32(len(blob)))
		payload.Write(blob)
	}

	if _, err := io.WriteString(w, serializeMagic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{serializeVersion}); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload.Bytes()))
	_, err := w.Write(crc[:])
	return err
}

// Load reads an index previously written by Save, verifying the format
// version and checksum.
func Load[V comparable](r io.Reader, codec ValueCodec[V]) (*Index[V], error) {
	head := make([]byte, 4+1+8)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	if string(head[:4]) != serializeMagic {
		return nil, fmt.Errorf("core: bad magic %q", head[:4])
	}
	if head[4] != serializeVersion {
		return nil, fmt.Errorf("core: unsupported format version %d", head[4])
	}
	plen := binary.LittleEndian.Uint64(head[5:])
	if plen > maxPayloadBytes {
		return nil, fmt.Errorf("core: implausible payload length %d", plen)
	}
	// Stream the payload so a corrupted length field cannot force a huge
	// up-front allocation: the buffer grows only with bytes actually read.
	var payloadBuf bytes.Buffer
	n, err := io.Copy(&payloadBuf, io.LimitReader(r, int64(plen)))
	if err != nil {
		return nil, fmt.Errorf("core: reading payload: %w", err)
	}
	if uint64(n) != plen {
		return nil, fmt.Errorf("core: truncated payload: %d of %d bytes", n, plen)
	}
	payload := payloadBuf.Bytes()
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("core: reading checksum: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != binary.LittleEndian.Uint32(crc[:]) {
		return nil, fmt.Errorf("core: checksum mismatch (corrupted index file)")
	}

	rd := &payloadReader{data: payload}
	flags, err := rd.byte()
	if err != nil {
		return nil, err
	}
	k, err := rd.u32()
	if err != nil {
		return nil, err
	}
	if k > 30 {
		return nil, fmt.Errorf("core: implausible k=%d", k)
	}
	n64, err := rd.u64()
	if err != nil {
		return nil, err
	}
	nullCode, err := rd.u32()
	if err != nil {
		return nil, err
	}
	deleted, err := rd.u64()
	if err != nil {
		return nil, err
	}

	ix := &Index[V]{
		reserveVoid: flags&1 != 0,
		useDC:       flags&2 != 0,
		hasNullCode: flags&4 != 0,
		nullCode:    nullCode,
		deleted:     int(deleted),
		n:           int(n64),
		progs:       new(progCache),
	}
	count, err := rd.u32()
	if err != nil {
		return nil, err
	}
	mapping := encoding.NewMapping[V](int(k))
	for i := uint32(0); i < count; i++ {
		code, err := rd.u32()
		if err != nil {
			return nil, err
		}
		vlen, err := rd.u32()
		if err != nil {
			return nil, err
		}
		if vlen > maxValueBytes {
			return nil, fmt.Errorf("core: value %d exceeds %d bytes", i, maxValueBytes)
		}
		data, err := rd.bytes(int(vlen))
		if err != nil {
			return nil, err
		}
		v, err := codec.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("core: decoding value %d: %w", i, err)
		}
		if err := mapping.Add(v, code); err != nil {
			return nil, fmt.Errorf("core: mapping entry %d: %w", i, err)
		}
	}
	ix.mapping = mapping
	if ix.reserveVoid {
		if holder, taken := mapping.ValueOf(0); taken {
			return nil, fmt.Errorf("core: file claims void reservation but code 0 maps %v", holder)
		}
	}
	if ix.hasNullCode {
		if holder, taken := mapping.ValueOf(nullCode); taken {
			return nil, fmt.Errorf("core: NULL code %d collides with value %v", nullCode, holder)
		}
	}

	ix.vectors = make([]*bitvec.Vector, k)
	for i := range ix.vectors {
		blen, err := rd.u32()
		if err != nil {
			return nil, err
		}
		blob, err := rd.bytes(int(blen))
		if err != nil {
			return nil, err
		}
		v := &bitvec.Vector{}
		if err := v.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("core: vector %d: %w", i, err)
		}
		if v.Len() != ix.n {
			return nil, fmt.Errorf("core: vector %d has %d bits, want %d", i, v.Len(), ix.n)
		}
		ix.vectors[i] = v
	}
	ix.rebuildSources()
	if rd.remaining() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in payload", rd.remaining())
	}
	if err := ix.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: loaded index is inconsistent: %w", err)
	}
	return ix, nil
}

type payloadReader struct {
	data []byte
	off  int
}

func (r *payloadReader) remaining() int { return len(r.data) - r.off }

func (r *payloadReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("core: truncated payload (need %d bytes, have %d)", n, r.remaining())
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *payloadReader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *payloadReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *payloadReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func writeU32(b *bytes.Buffer, x uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], x)
	b.Write(tmp[:])
}

func writeU64(b *bytes.Buffer, x uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], x)
	b.Write(tmp[:])
}
