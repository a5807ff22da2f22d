package analyzers_test

import (
	"slices"
	"testing"

	"etsqp/internal/lint"
	"etsqp/internal/lint/analyzers"
	"etsqp/internal/lint/linttest"
)

func TestRangeCheck(t *testing.T) {
	linttest.Run(t, "testdata/rangecheck", analyzers.RangeCheck)
}

func TestBoundsContract(t *testing.T) {
	linttest.Run(t, "testdata/boundscontract", analyzers.BoundsContract)
}

func TestGuardedBy(t *testing.T) {
	linttest.Run(t, "testdata/guardedby", analyzers.GuardedBy)
}

func TestAtomicField(t *testing.T) {
	linttest.Run(t, "testdata/atomicfield", analyzers.AtomicField)
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, "testdata/lockorder", analyzers.LockOrder)
}

func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, "testdata/hotpathalloc", analyzers.HotPathAlloc)
}

func TestNoPanic(t *testing.T) {
	linttest.Run(t, "testdata/nopanic", analyzers.NoPanic)
}

func TestObsGuard(t *testing.T) {
	linttest.Run(t, "testdata/obsguard", analyzers.ObsGuard)
}

func TestQueryDoc(t *testing.T) {
	linttest.Run(t, "testdata/querydoc", analyzers.QueryDoc)
}

func TestSharedWrite(t *testing.T) {
	linttest.Run(t, "testdata/sharedwrite", analyzers.SharedWrite)
}

func TestContracts(t *testing.T) {
	linttest.Run(t, "testdata/contracts", analyzers.NoBCE, analyzers.NoEscape, analyzers.Inline)
}

func TestSelect(t *testing.T) {
	if _, err := analyzers.Select("guardedby,nosuch"); err == nil {
		t.Error(`Select("guardedby,nosuch"): want error, got nil`)
	}
	got, err := analyzers.Select("guardedby, nobce")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != analyzers.GuardedBy || got[1] != analyzers.NoBCE {
		t.Errorf(`Select("guardedby, nobce") = %v, want [guardedby nobce]`, got)
	}
	if got, _ := analyzers.Select(""); len(got) != len(analyzers.All) {
		t.Errorf(`Select("") selected %d analyzers, want all %d`, len(got), len(analyzers.All))
	}
}

// TestContractsCompileOnce runs without a go command on PATH, where any
// build fails: the source analyzers must not need one, and contract
// analyzers re-run on a module whose facts were collected must not
// build it again.
func TestContractsCompileOnce(t *testing.T) {
	contracts := []*lint.Analyzer{analyzers.NoBCE, analyzers.NoEscape, analyzers.Inline}
	built, err := lint.Load("testdata/contracts")
	if err != nil {
		t.Fatal(err)
	}
	want, err := lint.Run(built, contracts)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", "")
	if got, err := lint.Run(built, contracts); err != nil || len(got) != len(want) {
		t.Errorf("second contract run: %d findings, err %v; want %d findings from the first build", len(got), err, len(want))
	}
	fresh, err := lint.Load("testdata/contracts")
	if err != nil {
		t.Fatal(err)
	}
	var source []*lint.Analyzer
	for _, a := range analyzers.All {
		if !slices.Contains(contracts, a) {
			source = append(source, a)
		}
	}
	if _, err := lint.Run(fresh, source); err != nil {
		t.Errorf("source analyzers invoked the compiler: %v", err)
	}
	if _, err := lint.Run(fresh, contracts[:1]); err == nil {
		t.Error("nobce ran without a go command: want a build error")
	}
}
