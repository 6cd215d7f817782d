package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"

	"neurdb"
)

// oltp_transfer: money transfers between accounts with an append-only
// history, plus balance reads. 20,000 accounts against 2 connections keeps
// write-write conflicts rare, so the workload measures the write path and not
// contention. The background checkpointer runs every 3 s, so several
// checkpoints complete inside one timed window.
const (
	oltpAccounts     = 20_000
	oltpInitialBal   = 1_000
	oltpCheckpoint   = 3 * time.Second
	oltpMaxRetries   = 5
	oltpRetryBackoff = 200 * time.Microsecond // doubled per attempt
	oltpTransferPct  = 0.7
	// A transfer writes two (id, bal) rows and one four-column history
	// row: 8 values of 8 bytes.
	oltpUserBytes = 64
)

type oltpInst struct {
	seed  int64
	n     int
	acked atomic.Int64 // transfers whose COMMIT was acknowledged
}

func newOLTP(seed int64, scale int) instance {
	return &oltpInst{seed: seed, n: max(oltpAccounts/scale, 100)}
}

func (o *oltpInst) load(db *neurdb.DB) error {
	o.acked.Store(0)
	err := execAll(db,
		`CREATE TABLE accounts (id INT PRIMARY KEY, bal INT)`,
		`CREATE TABLE history (id INT PRIMARY KEY, src INT, dst INT, amt INT)`)
	if err != nil {
		return err
	}
	err = bulkInsert(db, "accounts", o.n, func(buf []byte, i int) []byte {
		return appendTuple(buf, i, oltpInitialBal)
	})
	if err != nil {
		return err
	}
	return execAll(db, `ANALYZE accounts`, `ANALYZE history`)
}

// verify: money is conserved, and the history holds exactly the transfers
// the clients saw acknowledged.
func (o *oltpInst) verify(db *neurdb.DB) error {
	sum, err := scalar(db, `SELECT SUM(bal) FROM accounts`)
	if err != nil {
		return err
	}
	if want := float64(o.n * oltpInitialBal); sum != want {
		return fmt.Errorf("SUM(bal) = %v, want %v", sum, want)
	}
	cnt, err := scalar(db, `SELECT COUNT(*) FROM history`)
	if err != nil {
		return err
	}
	if want := o.acked.Load(); int64(cnt) != want {
		return fmt.Errorf("COUNT(history) = %v, want %d acknowledged transfers", cnt, want)
	}
	return nil
}

type oltpWorker struct {
	inst                         *oltpInst
	c                            conn
	id                           int
	seq                          int64
	rng                          *rand.Rand
	debit, credit, hist, balance stmt
}

func (o *oltpInst) newWorker(c conn, id int, stream uint64) (worker, error) {
	w := &oltpWorker{inst: o, c: c, id: id, rng: newRNG(o.seed, stream)}
	for _, p := range []struct {
		dst        *stmt
		shape, sql string
	}{
		{&w.debit, "update_debit", `UPDATE accounts SET bal = bal - ? WHERE id = ?`},
		{&w.credit, "update_credit", `UPDATE accounts SET bal = bal + ? WHERE id = ?`},
		{&w.hist, "insert_history", `INSERT INTO history VALUES (?, ?, ?, ?)`},
		{&w.balance, "balance_select", `SELECT id, bal FROM accounts WHERE id = ?`},
	} {
		st, err := c.prepare(p.shape, p.sql)
		if err != nil {
			return nil, err
		}
		*p.dst = st
	}
	return w, nil
}

func (w *oltpWorker) op(st *opStats) error {
	if w.rng.Float64() < oltpTransferPct {
		return w.transfer(st)
	}
	key := w.rng.IntN(w.inst.n)
	n, err := w.balance.run(func(r scanner) error {
		var id, bal int64
		if err := r.Scan(&id, &bal); err != nil {
			return err
		}
		if id != int64(key) {
			return fmt.Errorf("balance of %d returned account %d", key, id)
		}
		return nil
	}, key)
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("balance of %d: %d rows", key, n)
	}
	st.rows += n
	return nil
}

// transfer moves money in one explicit transaction, retrying from BEGIN with
// a doubling back-off when first-updater-wins aborts it. Exhausting the
// retries is a failed operation.
func (w *oltpWorker) transfer(st *opStats) error {
	n := w.inst.n
	src := w.rng.IntN(n)
	dst := (src + 1 + w.rng.IntN(n-1)) % n
	amt := 1 + w.rng.IntN(100)
	w.seq++
	histID := int64(w.id)<<40 | w.seq
	for attempt := 0; ; attempt++ {
		err := w.tryTransfer(src, dst, amt, histID)
		if err == nil {
			w.inst.acked.Add(1)
			st.txns++
			st.rows += 3
			st.userBytes += oltpUserBytes
			return nil
		}
		// The failed statement leaves the transaction open; a failed
		// COMMIT has already ended it, and then ROLLBACK only reports that.
		_, _ = w.c.text("rollback", `ROLLBACK`, nil)
		if !isWriteConflict(err) || attempt == oltpMaxRetries {
			return err
		}
		st.retries++
		// The winner may still be waiting for its commit fsync; retrying
		// at once would burn every attempt inside that one wait.
		time.Sleep(oltpRetryBackoff << attempt)
	}
}

func (w *oltpWorker) tryTransfer(src, dst, amt int, histID int64) error {
	if _, err := w.c.text("begin", `BEGIN`, nil); err != nil {
		return err
	}
	for _, u := range []struct {
		st  stmt
		key int
	}{{w.debit, src}, {w.credit, dst}} {
		n, err := u.st.run(nil, amt, u.key)
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("UPDATE of account %d affected %d rows", u.key, n)
		}
	}
	if _, err := w.hist.run(nil, histID, src, dst, amt); err != nil {
		return err
	}
	_, err := w.c.text("commit", `COMMIT`, nil)
	return err
}

// isWriteConflict recognizes the engine's first-updater-wins abort. Over the
// wire the error arrives as text under the generic ERROR code, so the
// message is the only thing to match on either path.
func isWriteConflict(err error) bool {
	return err != nil && strings.Contains(err.Error(), "write-write conflict")
}
