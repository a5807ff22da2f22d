// The fixture's metric registry. Rule 4 cross-checks these names
// against docs/OBSERVABILITY.md: the doc's `fixture.ghost` row has no
// registration, so the package clause below carries its diagnostic.

package obs // want `docs/OBSERVABILITY\.md documents fixture\.ghost but no such metric is registered`

var (
	Queries = newCounter("fixture.queries",
		"queries executed")
	Dropped = newCounter("fixture.dropped", // want `metric fixture\.dropped is not documented in docs/OBSERVABILITY\.md`
		"missing from the doc tables")
	Latency = newHistogram("fixture.latency_ns",
		"query latency distribution")
	Goroutines = newGauge("fixture.goroutines",
		"live goroutines at last sample")
)
