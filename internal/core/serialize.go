// Serialization for clustering artifacts.
//
// Two formats live here, with different jobs:
//
//   - Results (WriteResult/ReadResult) serialize as versioned JSON — the
//     human-inspectable hand-off between a clustering run and downstream
//     analysis.
//   - Models (Model.Save/LoadModel) serialize as a versioned, checksummed
//     little-endian binary format — the durable artifact behind
//     "cluster once, serve forever".
//
// # Model file format (version 1)
//
// All integers are little-endian; floats are IEEE-754 bit patterns
// written as uint64. Strings are a uint32 byte length followed by the
// UTF-8 bytes.
//
//	header:
//	  magic    [8]byte  "ROCKMODL"
//	  version  uint32   format version (currently 1)
//	payload:
//	  theta    float64  frozen neighbor threshold θ
//	  f        float64  frozen criterion exponent f(θ)
//	  measure  string   canonical similarity name (Measure.String)
//	  k        uint32   number of clusters
//	  k × {            per cluster, in cluster order:
//	    clusterSize  uint64   full cluster size at freeze time
//	    setSize      uint32   |L_i|, the frozen labeled-subset size
//	  }
//	  Σ setSize × {    labeled points, grouped by cluster, set order:
//	    nitems  uint32
//	    items   nitems × int32   sorted ascending, non-negative
//	  }
//	  hasVocab uint8   1 when a vocabulary section follows
//	  [vocab]:
//	    count  uint32
//	    names  count × string   item names in id order
//	trailer:
//	  checksum uint32  CRC-32 (IEEE) of header + payload
//
// The encoding is deterministic — the same model always produces the
// same bytes, so Save → Load → Save round-trips byte-identically (a
// property the model tests enforce). The inverted item postings are NOT
// stored: LoadModel rebuilds them from the labeled points with the same
// deterministic pass Freeze uses, which keeps files small and cannot
// diverge from the stored transactions.
//
// # Forward compatibility
//
// Readers accept exactly the versions they know: LoadModel returns
// ErrModelVersion (wrapped, with both version numbers in the message) for
// anything else, rather than guessing at an unknown layout. Any change to
// the payload — new sections, wider integers, reordered fields — must
// bump modelVersion and either teach LoadModel the old layout or reject
// it explicitly. The magic and version fields must never move: they are
// what lets every future reader identify a file it cannot parse.
package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// resultEnvelope versions the serialized form so future layout changes
// stay detectable.
type resultEnvelope struct {
	Version int     `json:"version"`
	Result  *Result `json:"result"`
}

const resultVersion = 1

// WriteResult serializes a clustering result as versioned JSON — the
// hand-off format between a clustering run and downstream analysis or a
// later labeling pass.
func WriteResult(w io.Writer, res *Result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(resultEnvelope{Version: resultVersion, Result: res}); err != nil {
		return fmt.Errorf("core: encoding result: %w", err)
	}
	return nil
}

// ReadResult deserializes a result written by WriteResult.
func ReadResult(r io.Reader) (*Result, error) {
	var env resultEnvelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("core: decoding result: %w", err)
	}
	if env.Version != resultVersion {
		return nil, fmt.Errorf("core: result version %d, this build reads %d", env.Version, resultVersion)
	}
	if env.Result == nil {
		return nil, fmt.Errorf("core: result payload missing")
	}
	return env.Result, nil
}

// --- model binary format ---

// modelMagic identifies a rock model file; it must never change.
var modelMagic = [8]byte{'R', 'O', 'C', 'K', 'M', 'O', 'D', 'L'}

// modelVersion is the format version this build writes and reads. Bump it
// on any payload layout change (see the package comment).
const modelVersion = 1

// maxModelClusterSize bounds the stored full-cluster sizes. Point indices
// are int32 everywhere a cluster's members are enumerated (CSR columns,
// the labeling postings), so no writer can have counted a cluster past
// 2³¹−1 points — a larger value survives the uint64 → int conversion on
// 64-bit hosts but is corruption all the same.
const maxModelClusterSize = math.MaxInt32

// Minimum encoded widths, used to bound every length-prefixed allocation
// by what the remaining payload could actually hold: a section that
// declares more entries than the bytes after it can encode is corrupt,
// and the check runs BEFORE the allocation, so a crafted length cannot
// balloon memory past a small constant factor of the file size.
const (
	clusterEntryBytes = 12 // clusterSize uint64 + setSize uint32
	pointMinBytes     = 4  // nitems uint32 (items may be empty)
	itemBytes         = 4  // one item id uint32
	strMinBytes       = 4  // length uint32 (the bytes may be empty)
)

// Load failure modes, each wrapped with context by LoadModel so callers
// can both print an actionable message and branch with errors.Is.
var (
	// ErrModelTruncated: the file ends before the fixed header and
	// checksum could even be present, or mid-read.
	ErrModelTruncated = errors.New("model file truncated")
	// ErrModelMagic: the leading bytes are not the rock model magic.
	ErrModelMagic = errors.New("not a rock model file")
	// ErrModelVersion: the file's format version is one this build does
	// not read.
	ErrModelVersion = errors.New("unsupported model version")
	// ErrModelChecksum: the trailing CRC-32 does not match the contents —
	// the file was corrupted in storage or transit.
	ErrModelChecksum = errors.New("model checksum mismatch")
	// ErrModelMeasure: the file names a similarity measure this build
	// does not know, so its assignments could not be reproduced.
	ErrModelMeasure = errors.New("model frozen with an unknown similarity measure")
	// ErrModelCorrupt: the checksum holds but the payload is internally
	// inconsistent (lengths disagree, values out of range).
	ErrModelCorrupt = errors.New("model payload corrupt")
)

// Save writes the model in the versioned, checksummed binary format
// documented in the package comment. The encoding is deterministic: the
// same model always produces the same bytes.
func (m *Model) Save(w io.Writer) error {
	var buf bytes.Buffer
	buf.Write(modelMagic[:])
	putU32(&buf, modelVersion)

	putU64(&buf, math.Float64bits(m.theta))
	putU64(&buf, math.Float64bits(m.fval))
	putStr(&buf, m.measure.String())
	putU32(&buf, uint32(len(m.sets)))
	for i := range m.sets {
		putU64(&buf, uint64(m.clusterSizes[i]))
		putU32(&buf, uint32(len(m.sets[i])))
	}
	for _, t := range m.pts {
		putU32(&buf, uint32(len(t)))
		for _, it := range t {
			putU32(&buf, uint32(int32(it)))
		}
	}
	if m.items != nil {
		buf.WriteByte(1)
		putU32(&buf, uint32(len(m.items)))
		for _, name := range m.items {
			putStr(&buf, name)
		}
	} else {
		buf.WriteByte(0)
	}

	putU32(&buf, crc32.ChecksumIEEE(buf.Bytes()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("core: writing model: %w", err)
	}
	return nil
}

// LoadModel reads a model written by Save, verifying magic, version and
// checksum before touching the payload and rebuilding the inverted item
// postings. Every failure mode wraps one of the ErrModel* sentinels.
func LoadModel(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	// Fixed frame: magic + version + at least an empty payload + CRC.
	if len(data) < len(modelMagic)+4+4 {
		return nil, fmt.Errorf("core: loading model: %w (%d bytes, need at least %d for the header and checksum)",
			ErrModelTruncated, len(data), len(modelMagic)+4+4)
	}
	if !bytes.Equal(data[:len(modelMagic)], modelMagic[:]) {
		return nil, fmt.Errorf("core: loading model: %w (magic %q)", ErrModelMagic, data[:len(modelMagic)])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("core: loading model: %w (file says %08x, contents hash to %08x — truncated or corrupted?)",
			ErrModelChecksum, got, want)
	}
	cur := &cursor{data: body[len(modelMagic):]}
	if v := cur.u32(); v != modelVersion {
		return nil, fmt.Errorf("core: loading model: %w (file is version %d, this build reads %d)",
			ErrModelVersion, v, modelVersion)
	}

	theta := math.Float64frombits(cur.u64())
	f := math.Float64frombits(cur.u64())
	name := cur.str()
	k := int(cur.u32())
	if cur.err != nil || k < 1 || k > cur.remaining()/clusterEntryBytes {
		return nil, corruptModel(cur.err, "cluster table")
	}
	clusterSizes := make([]int, k)
	setSizes := make([]int, k)
	npts := 0
	for i := 0; i < k; i++ {
		sz := cur.u64()
		if sz > maxModelClusterSize {
			return nil, corruptModel(nil, "cluster size beyond any plausible point count")
		}
		clusterSizes[i] = int(sz)
		setSizes[i] = int(cur.u32())
		if setSizes[i] > cur.remaining()/pointMinBytes {
			return nil, corruptModel(cur.err, "cluster table")
		}
		npts += setSizes[i]
	}
	if cur.err != nil || npts > cur.remaining()/pointMinBytes {
		return nil, corruptModel(cur.err, "cluster table")
	}
	pts := make([]dataset.Transaction, npts)
	for p := range pts {
		n := int(cur.u32())
		if cur.err != nil || n > cur.remaining()/itemBytes {
			return nil, corruptModel(cur.err, "labeled points")
		}
		t := make(dataset.Transaction, n)
		for j := range t {
			it := int32(cur.u32())
			if it < 0 {
				return nil, corruptModel(nil, "labeled points")
			}
			// Transactions are canonically sorted and deduplicated; the
			// index and the measures both rely on it.
			if j > 0 && dataset.Item(it) <= t[j-1] {
				return nil, corruptModel(nil, "labeled point items not sorted")
			}
			t[j] = dataset.Item(it)
		}
		pts[p] = t
	}
	var items []string
	switch cur.u8() {
	case 0:
	case 1:
		n := int(cur.u32())
		if cur.err != nil || n > cur.remaining()/strMinBytes {
			return nil, corruptModel(cur.err, "vocabulary")
		}
		items = make([]string, n)
		for i := range items {
			items[i] = cur.str()
		}
	default:
		return nil, corruptModel(nil, "vocabulary flag")
	}
	if cur.err != nil {
		return nil, corruptModel(cur.err, "payload")
	}
	if cur.remaining() != 0 {
		return nil, corruptModel(nil, "trailing bytes after the payload")
	}
	if math.IsNaN(theta) || theta < 0 || theta > 1 {
		return nil, corruptModel(nil, "theta outside [0,1]")
	}
	// A non-finite exponent would make every denominator NaN and every
	// query silently an outlier — fail loudly at load instead.
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, corruptModel(nil, "exponent f not finite")
	}
	// A model frozen with a vocabulary interns every labeled point's
	// items in it, so an id at or past the vocabulary is corruption.
	if items != nil {
		for _, t := range pts {
			for _, it := range t {
				if int(it) >= len(items) {
					return nil, corruptModel(nil, "labeled point item outside the vocabulary")
				}
			}
		}
	}

	measure, ok := similarity.ParseMeasure(name)
	if !ok {
		return nil, fmt.Errorf("core: loading model: %w: %q", ErrModelMeasure, name)
	}
	m, err := newModel(pts, setSizes, clusterSizes, theta, f, measure)
	if err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	m.items = items
	return m, nil
}

// corruptModel wraps a payload-parsing failure: an unexpected end of a
// section while the checksum held, or a value no valid writer produces.
func corruptModel(err error, section string) error {
	if err != nil {
		return fmt.Errorf("core: loading model: %w: %s ends early (%v)", ErrModelCorrupt, section, err)
	}
	return fmt.Errorf("core: loading model: %w: %s", ErrModelCorrupt, section)
}

// putU32/putU64/putStr append little-endian primitives to the buffer.
func putU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func putU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func putStr(buf *bytes.Buffer, s string) {
	putU32(buf, uint32(len(s)))
	buf.WriteString(s)
}

// cursor decodes little-endian primitives from a byte slice, latching the
// first overrun instead of panicking — the payload is checksummed, so an
// overrun means internal inconsistency, reported once by the caller.
type cursor struct {
	data []byte
	off  int
	err  error
}

func (c *cursor) remaining() int { return len(c.data) - c.off }

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.off+n > len(c.data) {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *cursor) str() string {
	n := int(c.u32())
	if c.err != nil || n < 0 || n > c.remaining() {
		if c.err == nil {
			c.err = io.ErrUnexpectedEOF
		}
		return ""
	}
	return string(c.take(n))
}
