package analyzers_test

import (
	"testing"

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
