package graphio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"phom/internal/plan"
)

// This file defines the canonical binary encoding of compiled plans —
// the flattened evaluation IR of internal/plan together with the
// identity a serving engine needs to re-key it (structure key,
// canonical edge order, solver method). The format is versioned and
// deliberately simple: a fixed magic, unsigned varints for every
// integer, and RatString bytes for constants (unique per rational, so
// encodings of equal plans are byte-identical). Decoding is hardened
// the same way the graph parsers are: every count is bounded before
// allocation, buffers grow with the input actually present, and a
// decoded program must pass plan.Program.Validate before it is
// returned, so corrupt or hostile snapshots yield errors, never panics
// or unbounded memory.
//
// Record layout (version 1), after the 8-byte magic "phomplan" and the
// version varint:
//
//	structKey   varint length + bytes (the StructKey of the job)
//	method      varint (the solver Method, validated by package core)
//	numEdges    varint
//	canonOrder  numEdges varints (a permutation of 0…numEdges−1: the
//	            compile-time instance's canonical edge order)
//	numRegs     varint
//	out         varint (result register)
//	consts      varint count, then per constant: varint length +
//	            RatString bytes
//	ops         varint count, then per op: opcode byte + dst + a + b
//	            varints
//
// Version 2 is version 1 followed by the part table of a Lemma 3.7
// composite (see plan.Builder.FinishParts), which lets a decoded plan
// splice under incremental maintenance:
//
//	parts       varint count (at least 2), then per component a varint:
//	            0 when its factor folded to the constant 1, else 1 + the
//	            op index of its factor (present indices strictly
//	            increase)
//
// A record without a part table is written as version 1, so such plans
// encode byte-identically across the two versions; the decoder accepts
// both.
//
// A plan snapshot (Engine.SavePlans) is the 9-byte magic "phomsnap1"
// followed by length-prefixed records.

const (
	planMagic    = "phomplan"
	planVersion  = 1 // a plan without a part table
	partsVersion = 2 // version 1 followed by the part table
	snapMagic    = "phomsnap1"
	maxStructKey = 128     // sha256 hex is 64 bytes
	maxPlanEdges = 1 << 24 // edges per instance
	maxPlanOps   = 1 << 26 // instructions per program
	maxPlanConst = 1 << 20 // constant-pool entries
	// MaxPlanRecordBytes caps one encoded plan inside a snapshot.
	MaxPlanRecordBytes = 1 << 26
)

// PlanRecord is the serializable identity of one compiled plan: the
// flattened program plus everything a plan cache needs to serve it
// (structure key, canonical edge order of the compile-time instance,
// and the solver method the results report), with the program's part
// table when it has one. Package core converts between PlanRecord and
// its CompiledPlan.
type PlanRecord struct {
	StructKey  string
	Method     uint8
	CanonOrder []int
	Program    *plan.Program
	Parts      []int // nil, or a table plan.ValidatePartTable accepts
}

// AppendPlanRecord appends the canonical encoding of rec to b. The
// record must be well-formed (a validated program with a canonical
// order matching its edge count); malformed records are an error, not
// a silent corrupt encoding.
func AppendPlanRecord(b []byte, rec *PlanRecord) ([]byte, error) {
	p := rec.Program
	if p == nil {
		return nil, fmt.Errorf("graphio: plan record has no program")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("graphio: refusing to encode an invalid program: %v", err)
	}
	if len(rec.StructKey) == 0 || len(rec.StructKey) > maxStructKey {
		return nil, fmt.Errorf("graphio: structure key of %d bytes", len(rec.StructKey))
	}
	if len(rec.CanonOrder) != p.NumEdges {
		return nil, fmt.Errorf("graphio: canonical order of %d entries for %d edges", len(rec.CanonOrder), p.NumEdges)
	}
	version := uint64(planVersion)
	if rec.Parts != nil {
		if err := plan.ValidatePartTable(rec.Parts, len(p.Ops)); err != nil {
			return nil, fmt.Errorf("graphio: refusing to encode an invalid part table: %v", err)
		}
		version = partsVersion
	}
	b = append(b, planMagic...)
	b = binary.AppendUvarint(b, version)
	b = binary.AppendUvarint(b, uint64(len(rec.StructKey)))
	b = append(b, rec.StructKey...)
	b = binary.AppendUvarint(b, uint64(rec.Method))
	b = binary.AppendUvarint(b, uint64(p.NumEdges))
	for _, ei := range rec.CanonOrder {
		if ei < 0 || ei >= p.NumEdges {
			return nil, fmt.Errorf("graphio: canonical order entry %d of %d", ei, p.NumEdges)
		}
		b = binary.AppendUvarint(b, uint64(ei))
	}
	b = binary.AppendUvarint(b, uint64(p.NumRegs))
	b = binary.AppendUvarint(b, uint64(p.Out))
	b = binary.AppendUvarint(b, uint64(len(p.Consts)))
	for _, c := range p.Consts {
		s := c.RatString()
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Ops)))
	for _, op := range p.Ops {
		b = append(b, byte(op.Code))
		b = binary.AppendUvarint(b, uint64(op.Dst))
		b = binary.AppendUvarint(b, uint64(op.A))
		b = binary.AppendUvarint(b, uint64(op.B))
	}
	if rec.Parts != nil {
		b = binary.AppendUvarint(b, uint64(len(rec.Parts)))
		for _, k := range rec.Parts {
			entry := uint64(0) // plan.FoldedPart
			if k != plan.FoldedPart {
				entry = uint64(k) + 1
			}
			b = binary.AppendUvarint(b, entry)
		}
	}
	return b, nil
}

// byteCursor walks an encoded record with bounds checking.
type byteCursor struct {
	data []byte
	off  int
}

func (c *byteCursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("graphio: truncated or malformed %s varint", what)
	}
	c.off += n
	return v, nil
}

func (c *byteCursor) count(what string, max int) (int, error) {
	v, err := c.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, fmt.Errorf("graphio: %s %d exceeds limit %d", what, v, max)
	}
	return int(v), nil
}

func (c *byteCursor) bytes(what string, n int) ([]byte, error) {
	if c.off+n > len(c.data) {
		return nil, fmt.Errorf("graphio: truncated %s", what)
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *byteCursor) byteVal(what string) (byte, error) {
	if c.off >= len(c.data) {
		return 0, fmt.Errorf("graphio: truncated %s", what)
	}
	b := c.data[c.off]
	c.off++
	return b, nil
}

// DecodePlanRecord decodes one canonical plan record. The returned
// program has passed Validate and the canonical order is a verified
// permutation, so the record is safe to execute and to re-encode; the
// method byte is opaque here and validated by package core.
func DecodePlanRecord(data []byte) (*PlanRecord, error) {
	c := &byteCursor{data: data}
	magic, err := c.bytes("magic", len(planMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != planMagic {
		return nil, fmt.Errorf("graphio: not a plan record (bad magic)")
	}
	version, err := c.uvarint("version")
	if err != nil {
		return nil, err
	}
	if version != planVersion && version != partsVersion {
		return nil, fmt.Errorf("graphio: unsupported plan version %d (want %d or %d)", version, planVersion, partsVersion)
	}
	keyLen, err := c.count("structure key length", maxStructKey)
	if err != nil {
		return nil, err
	}
	if keyLen == 0 {
		return nil, fmt.Errorf("graphio: empty structure key")
	}
	keyBytes, err := c.bytes("structure key", keyLen)
	if err != nil {
		return nil, err
	}
	method, err := c.uvarint("method")
	if err != nil {
		return nil, err
	}
	if method > 255 {
		return nil, fmt.Errorf("graphio: method %d out of range", method)
	}
	numEdges, err := c.count("edge count", maxPlanEdges)
	if err != nil {
		return nil, err
	}
	// Each canonical-order entry takes at least one byte, so a claimed
	// edge count beyond the remaining input is a truncation — reject it
	// before sizing any buffer by the claim.
	if numEdges > len(c.data)-c.off {
		return nil, fmt.Errorf("graphio: edge count %d exceeds remaining input", numEdges)
	}
	canonOrder := make([]int, 0, min(numEdges, 4096))
	seen := make([]bool, numEdges)
	for i := 0; i < numEdges; i++ {
		ei, err := c.uvarint("canonical order entry")
		if err != nil {
			return nil, err
		}
		if ei >= uint64(numEdges) || seen[ei] {
			return nil, fmt.Errorf("graphio: canonical order is not a permutation (entry %d)", ei)
		}
		seen[ei] = true
		canonOrder = append(canonOrder, int(ei))
	}
	numRegs, err := c.count("register count", maxPlanOps)
	if err != nil {
		return nil, err
	}
	out, err := c.uvarint("output register")
	if err != nil {
		return nil, err
	}
	numConsts, err := c.count("constant count", maxPlanConst)
	if err != nil {
		return nil, err
	}
	prog := &plan.Program{NumEdges: numEdges, NumRegs: numRegs, Out: uint32(out)}
	if out > uint64(numRegs) {
		return nil, fmt.Errorf("graphio: output register %d of %d", out, numRegs)
	}
	for i := 0; i < numConsts; i++ {
		sl, err := c.count("constant length", maxRatLen)
		if err != nil {
			return nil, err
		}
		sb, err := c.bytes("constant", sl)
		if err != nil {
			return nil, err
		}
		r, err := ParseRat(string(sb))
		if err != nil {
			return nil, fmt.Errorf("graphio: constant %d: %v", i, err)
		}
		prog.Consts = append(prog.Consts, r)
	}
	numOps, err := c.count("op count", maxPlanOps)
	if err != nil {
		return nil, err
	}
	// Each op takes at least four bytes (opcode + three varints).
	if numOps > (len(c.data)-c.off)/4 {
		return nil, fmt.Errorf("graphio: op count %d exceeds remaining input", numOps)
	}
	prog.Ops = make([]plan.Op, 0, min(numOps, 4096))
	for i := 0; i < numOps; i++ {
		code, err := c.byteVal("opcode")
		if err != nil {
			return nil, err
		}
		dst, err := c.uvarint("op destination")
		if err != nil {
			return nil, err
		}
		a, err := c.uvarint("op operand")
		if err != nil {
			return nil, err
		}
		bv, err := c.uvarint("op operand")
		if err != nil {
			return nil, err
		}
		const maxOperand = 1 << 32
		if dst >= maxOperand || a >= maxOperand || bv >= maxOperand {
			return nil, fmt.Errorf("graphio: op %d operand overflow", i)
		}
		prog.Ops = append(prog.Ops, plan.Op{Code: plan.OpCode(code), Dst: uint32(dst), A: uint32(a), B: uint32(bv)})
	}
	var parts []int
	if version == partsVersion {
		numParts, err := c.count("part count", maxPlanOps)
		if err != nil {
			return nil, err
		}
		// Each entry takes at least one byte.
		if numParts > len(c.data)-c.off {
			return nil, fmt.Errorf("graphio: part count %d exceeds remaining input", numParts)
		}
		parts = make([]int, numParts)
		for i := range parts {
			k, err := c.count("part entry", numOps)
			if err != nil {
				return nil, err
			}
			parts[i] = plan.FoldedPart
			if k > 0 {
				parts[i] = k - 1
			}
		}
		if err := plan.ValidatePartTable(parts, numOps); err != nil {
			return nil, fmt.Errorf("graphio: %v", err)
		}
	}
	if c.off != len(data) {
		return nil, fmt.Errorf("graphio: %d trailing bytes after plan record", len(data)-c.off)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return &PlanRecord{
		StructKey:  string(keyBytes),
		Method:     uint8(method),
		CanonOrder: canonOrder,
		Program:    prog,
		Parts:      parts,
	}, nil
}

// WritePlanSnapshot writes a snapshot container: the snapshot magic
// followed by each record length-prefixed.
func WritePlanSnapshot(w io.Writer, records [][]byte) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	for _, rec := range records {
		if len(rec) > MaxPlanRecordBytes {
			return fmt.Errorf("graphio: plan record of %d bytes exceeds limit %d", len(rec), MaxPlanRecordBytes)
		}
		n := binary.PutUvarint(lenBuf[:], uint64(len(rec)))
		if _, err := w.Write(lenBuf[:n]); err != nil {
			return err
		}
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// ReadPlanSnapshot reads a snapshot container, invoking fn for each
// record until EOF. A record that fails fn aborts the read with fn's
// error; truncated or oversized input is an error.
func ReadPlanSnapshot(r io.Reader, fn func(rec []byte) error) error {
	br := newByteReader(r)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("graphio: reading snapshot magic: %w", err)
	}
	if string(magic) != snapMagic {
		return fmt.Errorf("graphio: not a plan snapshot (bad magic)")
	}
	for {
		size, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return nil // clean end of snapshot
		}
		if err != nil {
			return fmt.Errorf("graphio: reading record length: %w", err)
		}
		if size > MaxPlanRecordBytes {
			return fmt.Errorf("graphio: plan record of %d bytes exceeds limit %d", size, MaxPlanRecordBytes)
		}
		// Copy in bounded chunks so memory grows with bytes actually
		// received, not with the length the stream claims — a stalled
		// or truncated source must not pin a MaxPlanRecordBytes buffer.
		var rec bytes.Buffer
		if _, err := io.CopyN(&rec, br, int64(size)); err != nil {
			return fmt.Errorf("graphio: truncated plan record: %w", err)
		}
		if err := fn(rec.Bytes()); err != nil {
			return err
		}
	}
}

// byteReader adapts an io.Reader for binary.ReadUvarint without
// double-buffering callers that already hand us a byte-oriented
// source.
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func newByteReader(r io.Reader) *byteReader { return &byteReader{r: r} }

func (b *byteReader) Read(p []byte) (int, error) { return io.ReadFull(b.r, p) }

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}
