package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"phom/internal/gen"
)

// The lowered-plan digests are SHA-256s over the MarshalBinary records
// of the seeded corpora below: single queries, then lifted UCQs drawn
// from the same random stream. They pin the exact bytes compilation
// and lowering produce: method, op order, register allocation and
// constant-pool order. Each record is hashed with its part table
// cleared, that is as the version-1 record of the same program;
// loweredPartsDigest pins the part tables of both corpora on their own.
// A change that moves plan bytes on purpose (a new lowering, a
// different schedule, a different route) must regenerate the digest it
// moves: run
//
//	go test ./internal/core -run TestLoweredPlanBytesGolden -v
//
// copy the "got" digest from the failure message here, and say in the
// change's notes why plan bytes moved (cached snapshots re-lower).
const (
	loweredPlanDigestCQ  = "96e33f465c427fa21ec862cc6b1e2a00f07cc2fee8381b935c31675018f1ecd2"
	loweredPlanDigestUCQ = "76d88e726b478463826e126d3b7ac08ddf2f3eefcc5b41db4ceb92828e536931"
	loweredPartsDigest   = "741e47d4d9e55a385a581107ce7f1f19ffd21b7d8e56b164e44f0629799949e3"
)

// TestLoweredPlanBytesGolden lowers a seeded corpus covering the four
// tractable rows (Props 3.6, 4.10, 4.11, 5.4/5.5), disconnected
// instances (the Lemma 3.7 composite) and lifted UCQs, and compares
// the digests of the serialized plans against loweredPlanDigestCQ and
// loweredPlanDigestUCQ, and of their part tables against
// loweredPartsDigest.
func TestLoweredPlanBytesGolden(t *testing.T) {
	r := rand.New(rand.NewSource(2017))
	digest, parts := sha256.New(), sha256.New()
	var records, multiPart int
	check := func(corpus, want string) {
		t.Helper()
		got := hex.EncodeToString(digest.Sum(nil))
		t.Logf("%s: %d plan records (%d multi-component), digest %s", corpus, records, multiPart, got)
		if multiPart == 0 {
			t.Errorf("%s corpus has no disconnected instance", corpus)
		}
		if got != want {
			t.Errorf("%s lowered plan bytes moved: got digest %s, want %s", corpus, got, want)
		}
		digest.Reset()
		records, multiPart = 0, 0
	}
	add := func(name string, cp *CompiledPlan) {
		t.Helper()
		v1 := *cp
		v1.parts = nil
		data, err := v1.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: MarshalBinary: %v", name, err)
		}
		parts.Write(binary.AppendUvarint(nil, uint64(len(cp.parts))))
		for _, k := range cp.parts {
			parts.Write(binary.AppendVarint(nil, int64(k)))
		}
		if cp.parts != nil {
			multiPart++
		}
		digest.Write(binary.AppendUvarint(nil, uint64(len(data))))
		digest.Write(data)
		records++
	}
	for round := 0; round < 80; round++ {
		for _, job := range tractableJobs(r, 2+r.Intn(40)) {
			if job.name == "baseline (hard cell)" {
				continue // opaque: not serializable
			}
			cp, err := Compile(job.q, job.h, nil)
			if err != nil {
				t.Fatalf("round %d %s: Compile: %v", round, job.name, err)
			}
			add(job.name, cp)
		}
	}
	check("single-query", loweredPlanDigestCQ)
	for _, cell := range ucqCells {
		labels := oneLabel
		if cell.labeled {
			labels = twoLabels
		}
		for trial := 0; trial < 10; trial++ {
			qs := make(UCQ, 1+r.Intn(3))
			for i := range qs {
				qs[i] = gen.RandInClass(r, cell.qc, 2+r.Intn(3), labels)
			}
			h := gen.RandProb(r, gen.RandInClass(r, cell.ic, 2+r.Intn(10), labels), 0.3)
			cp, err := CompileUCQ(qs, h, &Options{DisableFallback: true})
			if err != nil {
				t.Fatalf("%s trial %d: CompileUCQ: %v", cell.name, trial, err)
			}
			if cp.Opaque() {
				t.Fatalf("%s trial %d: lifted cell compiled to an opaque plan", cell.name, trial)
			}
			add(cell.name, cp)
		}
	}
	check("UCQ", loweredPlanDigestUCQ)
	if got := hex.EncodeToString(parts.Sum(nil)); got != loweredPartsDigest {
		t.Errorf("part tables moved: got digest %s, want %s", got, loweredPartsDigest)
	}
}
