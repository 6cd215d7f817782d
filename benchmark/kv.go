package main

import (
	"fmt"
	"math/rand/v2"

	"neurdb"
)

// kv_read: a read-mostly key-value service. 200,000 rows are 1,563 heap
// pages, which fit the default 4,096-page pool. Keys follow a scrambled
// Zipf(0.99) popularity, so a few keys are hot and most are cold.
const (
	kvRows      = 200_000
	kvZipfTheta = 0.99
	kvRangeLen  = 50
)

type kvInst struct {
	seed int64
	n    int
	z    *zipf
}

func newKV(seed int64, scale int) instance {
	n := max(kvRows/scale, 10*kvRangeLen)
	return &kvInst{seed: seed, n: n, z: newZipf(n, kvZipfTheta)}
}

// kvVal is the value the row with this key must hold: a multiple of 0.5, so
// it survives the trip through SQL text and the wire exactly.
func kvVal(seed int64, id int) float64 {
	return float64(mix(seed, uint64(id))%1_000_003) * 0.5
}

func (k *kvInst) load(db *neurdb.DB) error {
	if err := execAll(db, `CREATE TABLE kv (id INT PRIMARY KEY, grp INT, val DOUBLE)`); err != nil {
		return err
	}
	err := bulkInsert(db, "kv", k.n, func(buf []byte, i int) []byte {
		return appendTuple(buf, i, i%97, kvVal(k.seed, i))
	})
	if err != nil {
		return err
	}
	return execAll(db, `ANALYZE kv`)
}

func (k *kvInst) verify(db *neurdb.DB) error {
	n, err := scalar(db, `SELECT COUNT(*) FROM kv`)
	if err != nil {
		return err
	}
	if int(n) != k.n {
		return fmt.Errorf("kv holds %d rows, want %d", int(n), k.n)
	}
	return nil
}

type kvWorker struct {
	inst     *kvInst
	c        conn
	rng      *rand.Rand
	point    stmt
	rangeSel stmt
}

func (k *kvInst) newWorker(c conn, _ int, stream uint64) (worker, error) {
	w := &kvWorker{inst: k, c: c, rng: newRNG(k.seed, stream)}
	var err error
	if w.point, err = c.prepare("point_select", `SELECT val FROM kv WHERE id = ?`); err != nil {
		return nil, err
	}
	if w.rangeSel, err = c.prepare("range_select", `SELECT id, val FROM kv WHERE id >= ? AND id < ?`); err != nil {
		return nil, err
	}
	return w, nil
}

// op is 80% prepared point SELECT, 10% prepared 50-row range, 10% ad-hoc
// text with the key inlined (which the server must parse and plan, or find in
// its ad-hoc plan memo).
func (w *kvWorker) op(st *opStats) error {
	k := w.inst
	mixDraw := w.rng.Float64()
	key := scramble(k.z.rank(w.rng.Float64()), k.n)
	checkPoint := func(r scanner) error {
		var val float64
		if err := r.Scan(&val); err != nil {
			return err
		}
		if want := kvVal(k.seed, key); val != want {
			return fmt.Errorf("kv[%d] = %v, want %v", key, val, want)
		}
		return nil
	}
	var n int64
	var err error
	want := int64(1)
	switch {
	case mixDraw < 0.8:
		n, err = w.point.run(checkPoint, key)
	case mixDraw < 0.9:
		lo := min(key, k.n-kvRangeLen)
		var seen uint64 // bit i set once key lo+i was returned
		n, err = w.rangeSel.run(func(r scanner) error {
			var id int
			var val float64
			if err := r.Scan(&id, &val); err != nil {
				return err
			}
			if id < lo || id >= lo+kvRangeLen || seen&(1<<(id-lo)) != 0 {
				return fmt.Errorf("range [%d,%d) returned key %d", lo, lo+kvRangeLen, id)
			}
			seen |= 1 << (id - lo)
			if want := kvVal(k.seed, id); val != want {
				return fmt.Errorf("kv[%d] = %v, want %v", id, val, want)
			}
			return nil
		}, lo, lo+kvRangeLen)
		want = kvRangeLen
	default:
		n, err = w.c.text("adhoc_point", fmt.Sprintf(`SELECT val FROM kv WHERE id = %d`, key), checkPoint)
	}
	if err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("key %d: %d rows, want %d", key, n, want)
	}
	st.rows += n
	return nil
}
