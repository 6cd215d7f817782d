package main

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"

	"neurdb"
)

// olap_dashboard: an analyst's dashboard refreshing four panels over a fact
// table. facts is 160,000 rows = 1,250 heap pages against a 1,024-page pool,
// so — unlike kv_read — the table is larger than the engine's page cache and
// every scan cycles it. (The full-size pool would need 4x the rows, and a
// refresh would then be too slow to collect 200 samples in one window.)
const (
	olapFacts     = 160_000
	olapPoolPages = 1_024
	olapDims      = 1_000
	olapCats      = 20
	olapRegions   = 16
	olapQtys      = 50
	olapAmounts   = 4_000 // distinct amounts, each a multiple of 0.25
	olapTopN      = 100
	olapRangeLen  = 5_000
)

// olapFact is row id of facts: every column is a function of (seed, id), and
// every amount is a multiple of 0.25 below 1,000, so sums over the whole
// table are exact in float64 whatever order the engine adds them in.
type olapFact struct {
	dim, region, qty int
	amount           float64
}

func olapRow(seed int64, id int) olapFact {
	h := mix(seed, uint64(id))
	return olapFact{
		dim:    int(h % olapDims),
		region: int((h >> 12) % olapRegions),
		qty:    int((h >> 24) % olapQtys),
		amount: float64((h>>36)%olapAmounts) * 0.25,
	}
}

func olapCat(seed int64, dim int) int { return int(mix(seed^0x5ca1ab1e, uint64(dim)) % olapCats) }

// agg is one group's COUNT(*) and SUM(amount).
type agg struct {
	n   int64
	sum float64
}

type olapInst struct {
	seed   int64
	nFacts int
	nRange int
	// The reference results, computed here from the seeded rows and never
	// from the engine: per-(region, qty) and per-(category, qty) aggregates
	// answer the two GROUP BY panels for any qty threshold, and topAmounts
	// is each qty's 100 largest amounts in descending order.
	byRegion   [olapRegions][olapQtys]agg
	byCat      [olapCats][olapQtys]agg
	topAmounts [olapQtys][]float64
}

func newOLAP(seed int64, scale int) instance {
	o := &olapInst{seed: seed, nFacts: max(olapFacts/scale, 2_000)}
	o.nRange = min(olapRangeLen, o.nFacts/4)
	var amounts [olapQtys][]float64
	for id := 0; id < o.nFacts; id++ {
		f := olapRow(seed, id)
		r, c := &o.byRegion[f.region][f.qty], &o.byCat[olapCat(seed, f.dim)][f.qty]
		r.n, r.sum = r.n+1, r.sum+f.amount
		c.n, c.sum = c.n+1, c.sum+f.amount
		amounts[f.qty] = append(amounts[f.qty], f.amount)
	}
	for q := range amounts {
		slices.SortFunc(amounts[q], func(a, b float64) int { return cmp.Compare(b, a) })
		o.topAmounts[q] = amounts[q][:min(olapTopN, len(amounts[q]))]
	}
	return o
}

func (o *olapInst) load(db *neurdb.DB) error {
	err := execAll(db,
		`CREATE TABLE facts (id INT PRIMARY KEY, dim_id INT, region INT, qty INT, amount DOUBLE)`,
		`CREATE TABLE dim (id INT PRIMARY KEY, cat INT)`)
	if err != nil {
		return err
	}
	err = bulkInsert(db, "facts", o.nFacts, func(buf []byte, i int) []byte {
		f := olapRow(o.seed, i)
		return appendTuple(buf, i, f.dim, f.region, f.qty, f.amount)
	})
	if err != nil {
		return err
	}
	err = bulkInsert(db, "dim", olapDims, func(buf []byte, i int) []byte {
		return appendTuple(buf, i, olapCat(o.seed, i))
	})
	if err != nil {
		return err
	}
	return execAll(db, `ANALYZE facts`, `ANALYZE dim`)
}

func (o *olapInst) verify(db *neurdb.DB) error {
	n, err := scalar(db, `SELECT COUNT(*) FROM facts`)
	if err != nil {
		return err
	}
	if int(n) != o.nFacts {
		return fmt.Errorf("facts holds %d rows, want %d", int(n), o.nFacts)
	}
	return nil
}

type olapWorker struct {
	inst                               *olapInst
	rng                                *rand.Rand
	byRegion, byCat, topN, rangeStream stmt
	seen                               []bool // scratch for the range panel
}

func (o *olapInst) newWorker(c conn, _ int, stream uint64) (worker, error) {
	w := &olapWorker{inst: o, rng: newRNG(o.seed, stream), seen: make([]bool, o.nRange)}
	for _, p := range []struct {
		dst        *stmt
		shape, sql string
	}{
		{&w.byRegion, "group_by_region",
			`SELECT region, COUNT(*), SUM(amount) FROM facts WHERE qty < ? GROUP BY region`},
		{&w.byCat, "join_group_by_cat",
			`SELECT dim.cat, COUNT(*), SUM(facts.amount) FROM facts JOIN dim ON facts.dim_id = dim.id WHERE facts.qty >= ? GROUP BY dim.cat`},
		{&w.topN, "order_by_limit",
			`SELECT id, amount FROM facts WHERE qty = ? ORDER BY amount DESC LIMIT 100`},
		{&w.rangeStream, "range_stream",
			`SELECT id, amount FROM facts WHERE id >= ? AND id < ?`},
	} {
		st, err := c.prepare(p.shape, p.sql)
		if err != nil {
			return nil, err
		}
		*p.dst = st
	}
	return w, nil
}

// op is one dashboard refresh: all four panels, each with fresh parameters,
// each checked against the reference.
func (w *olapWorker) op(st *opStats) error {
	o := w.inst
	below := 10 + w.rng.IntN(31) // qty < below
	atLeast := w.rng.IntN(25)    // qty >= atLeast
	qty := w.rng.IntN(olapQtys)
	lo := w.rng.IntN(o.nFacts - o.nRange + 1)

	// Panel 1: filtered GROUP BY.
	n, err := w.checkGroups(w.byRegion, below, olapRegions, func(g int) agg {
		var a agg
		for q := 0; q < below; q++ {
			a.n, a.sum = a.n+o.byRegion[g][q].n, a.sum+o.byRegion[g][q].sum
		}
		return a
	})
	if err != nil {
		return fmt.Errorf("group_by_region(qty < %d): %w", below, err)
	}
	st.rows += n

	// Panel 2: hash join with the dimension, then GROUP BY.
	n, err = w.checkGroups(w.byCat, atLeast, olapCats, func(g int) agg {
		var a agg
		for q := atLeast; q < olapQtys; q++ {
			a.n, a.sum = a.n+o.byCat[g][q].n, a.sum+o.byCat[g][q].sum
		}
		return a
	})
	if err != nil {
		return fmt.Errorf("join_group_by_cat(qty >= %d): %w", atLeast, err)
	}
	st.rows += n

	// Panel 3: top 100 by amount. Ties may come back in any order, so the
	// check is: the amounts equal the reference's, and each id really has
	// that qty and amount.
	top := o.topAmounts[qty]
	i := 0
	n, err = w.topN.run(func(r scanner) error {
		var id int
		var amount float64
		if err := r.Scan(&id, &amount); err != nil {
			return err
		}
		if i >= len(top) || amount != top[i] {
			return fmt.Errorf("row %d has amount %v, reference disagrees", i, amount)
		}
		if f := olapRow(o.seed, id); id < 0 || id >= o.nFacts || f.qty != qty || f.amount != amount {
			return fmt.Errorf("row %d: fact %d is not (qty %d, amount %v)", i, id, qty, amount)
		}
		i++
		return nil
	}, qty)
	if err != nil {
		return fmt.Errorf("order_by_limit(qty = %d): %w", qty, err)
	}
	if int(n) != len(top) {
		return fmt.Errorf("order_by_limit(qty = %d): %d rows, want %d", qty, n, len(top))
	}
	st.rows += n

	// Panel 4: a 5,000-row primary-key range streamed to the client.
	clear(w.seen)
	n, err = w.rangeStream.run(func(r scanner) error {
		var id int
		var amount float64
		if err := r.Scan(&id, &amount); err != nil {
			return err
		}
		if id < lo || id >= lo+o.nRange || w.seen[id-lo] {
			return fmt.Errorf("unexpected or repeated fact %d", id)
		}
		w.seen[id-lo] = true
		if want := olapRow(o.seed, id).amount; amount != want {
			return fmt.Errorf("fact %d has amount %v, want %v", id, amount, want)
		}
		return nil
	}, lo, lo+o.nRange)
	if err != nil {
		return fmt.Errorf("range_stream [%d,%d): %w", lo, lo+o.nRange, err)
	}
	if int(n) != o.nRange {
		return fmt.Errorf("range_stream [%d,%d): %d rows", lo, lo+o.nRange, n)
	}
	st.rows += n
	return nil
}

// checkGroups runs a (group, COUNT(*), SUM(amount)) query and compares every
// group with the reference; groups the reference says are empty must be
// absent.
func (w *olapWorker) checkGroups(s stmt, arg, groups int, want func(g int) agg) (int64, error) {
	got := make(map[int]agg, groups)
	n, err := s.run(func(r scanner) error {
		var g int
		var a agg
		if err := r.Scan(&g, &a.n, &a.sum); err != nil {
			return err
		}
		if _, dup := got[g]; dup {
			return fmt.Errorf("group %d returned twice", g)
		}
		got[g] = a
		return nil
	}, arg)
	if err != nil {
		return n, err
	}
	nonEmpty := 0
	for g := 0; g < groups; g++ {
		ref := want(g)
		if ref.n == 0 {
			continue
		}
		nonEmpty++
		if got[g] != ref {
			return n, fmt.Errorf("group %d = %+v, want %+v", g, got[g], ref)
		}
	}
	if len(got) != nonEmpty {
		return n, fmt.Errorf("%d groups, want %d", len(got), nonEmpty)
	}
	return n, nil
}
