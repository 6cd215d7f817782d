package storage

import (
	"sync"
	"testing"
)

// poolToucher abstracts the sharded pool and the legacy baseline so both
// run the identical benchmark workload.
type poolToucher interface {
	Touch(table int, page uint32) bool
}

// benchPoolCapacity and benchPoolPages put the 8-goroutine workload in the
// eviction-churn regime: each goroutine touches uniform-random pages of its
// own table from a space 2x the whole pool, so even one goroutine running
// alone keeps missing and paying the admit/evict path — the regime where
// buffer accounting actually matters and where the legacy pool also pays
// map churn and one heap allocation per admission.
const (
	benchPoolCapacity = 8192
	benchPoolPages    = 16384 // per table: 2x pool capacity
)

// touchParallel drives b.N pool touches from 8 goroutines, each hitting
// random pages of its own table (concurrent scans with poor locality).
func touchParallel(b *testing.B, p poolToucher) {
	const goroutines = 8
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / goroutines
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			state := uint64(g + 1)
			for i := 0; i < per; i++ {
				// xorshift64: cheap deterministic per-goroutine randomness.
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				p.Touch(g, uint32(state)%benchPoolPages)
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkBufferPoolTouchParallel measures Touch throughput on the sharded
// pool under 8-way concurrency with eviction churn.
func BenchmarkBufferPoolTouchParallel(b *testing.B) {
	touchParallel(b, newShardedBufferPool(benchPoolCapacity, defaultPoolShards))
}

// BenchmarkBufferPoolTouchParallelSingleMutex is the pre-sharding baseline:
// the same workload against the original global-mutex container/list pool.
func BenchmarkBufferPoolTouchParallelSingleMutex(b *testing.B) {
	touchParallel(b, newLegacyBufferPool(benchPoolCapacity))
}

// BenchmarkBufferPoolTouchSerial isolates single-threaded Touch cost on the
// sharded pool (hit-dominated: working set fits).
func BenchmarkBufferPoolTouchSerial(b *testing.B) {
	p := newShardedBufferPool(benchPoolCapacity, defaultPoolShards)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Touch(1, uint32(i%512))
	}
}

// BenchmarkBufferPoolTouchSerialSingleMutex is the matching legacy serial
// baseline.
func BenchmarkBufferPoolTouchSerialSingleMutex(b *testing.B) {
	p := newLegacyBufferPool(benchPoolCapacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Touch(1, uint32(i%512))
	}
}
