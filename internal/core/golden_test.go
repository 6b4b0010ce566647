package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"phom/internal/gen"
	"phom/internal/plan"
)

// loweredPlanDigest is the SHA-256 over the MarshalBinary records of the
// seeded corpus below. It pins the exact bytes lowering produces: op
// order, register allocation and constant-pool order. A change that
// moves plan bytes on purpose (a new lowering, a different schedule)
// must regenerate it: run
//
//	go test ./internal/core -run TestLoweredPlanBytesGolden -v
//
// copy the "got" digest from the failure message here, and say in the
// change's notes why plan bytes moved (cached snapshots re-lower).
const loweredPlanDigest = "12a94d700ece832a78f6e177f5c271b9cf8e268a4fef66dd7f0f4b8b0f975a9c"

// TestLoweredPlanBytesGolden lowers a seeded corpus covering the four
// tractable rows (Props 3.6, 4.10, 4.11, 5.4/5.5), disconnected
// instances (the Lemma 3.7 Components composite) and lifted UCQs, and
// compares the digest of the serialized plans against loweredPlanDigest.
func TestLoweredPlanBytesGolden(t *testing.T) {
	r := rand.New(rand.NewSource(2017))
	digest := sha256.New()
	var records, multiPart int
	add := func(name string, cp *CompiledPlan) {
		t.Helper()
		data, err := cp.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: MarshalBinary: %v", name, err)
		}
		if c, ok := cp.tree.(plan.Components); ok && len(c.Parts) > 1 {
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
	if multiPart == 0 {
		t.Fatal("corpus has no disconnected instance")
	}
	got := hex.EncodeToString(digest.Sum(nil))
	t.Logf("%d plan records (%d multi-component), digest %s", records, multiPart, got)
	if got != loweredPlanDigest {
		t.Fatalf("lowered plan bytes moved: got digest %s, want %s", got, loweredPlanDigest)
	}
}
