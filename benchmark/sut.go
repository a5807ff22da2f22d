package main

import (
	"fmt"
	"runtime"

	"etsqp/internal/engine"
	"etsqp/internal/exec"
	"etsqp/internal/obs"
	"etsqp/internal/storage"

	_ "etsqp/internal/encoding/rlbe"
	_ "etsqp/internal/encoding/sprintz"
	_ "etsqp/internal/encoding/ts2diff"
)

// system is the program under test, wired the way `etsqp-cli serve
// -mode prune` wires it: the pruning engine on a private pool of nproc
// workers, a decoded-page cache of cacheBytes invalidated on every
// store mutation, and the metrics registry on.
type system struct {
	store  *storage.Store
	engine *engine.Engine
	serial *engine.Engine // same store and pool under ModeSerial, for the same-run ratio
	pool   *exec.Pool
	cache  *exec.PageCache
}

func newSystem(cols []*column) (*system, error) {
	obs.Enable()
	workers := runtime.GOMAXPROCS(0)
	s := &system{
		store: storage.NewStore(),
		pool:  exec.NewPool(workers),
		cache: exec.NewPageCache(cacheBytes),
	}
	for _, c := range cols {
		opts := storage.Options{PageSize: pageSize, ValueCodec: c.codec}
		if c.pageSize > 0 {
			opts.PageSize = c.pageSize
		}
		if err := s.store.Append(c.name, c.ts, c.vals, opts); err != nil {
			s.close()
			return nil, fmt.Errorf("append %s: %w", c.name, err)
		}
	}
	s.store.OnMutate(func(series string) { s.cache.InvalidateSeries(series) })
	s.engine = &engine.Engine{Store: s.store, Mode: engine.ModeETSQPPrune, Workers: workers, Pool: s.pool, Cache: s.cache}
	s.serial = &engine.Engine{Store: s.store, Mode: engine.ModeSerial, Workers: workers, Pool: s.pool}
	return s, nil
}

func (s *system) close() { s.pool.Close() }

// bytesPerValue is the encoded size of the named series over their
// point count — the space side of every decode-speed trade.
func (s *system) bytesPerValue(names ...string) float64 {
	var bytes, points int
	for _, n := range names {
		if ser, ok := s.store.Series(n); ok {
			bytes += ser.EncodedBytes()
			points += ser.NumPoints()
		}
	}
	return float64(bytes) / float64(points)
}
