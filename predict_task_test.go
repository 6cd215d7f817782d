package neurdb

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"neurdb/internal/aiengine"
	"neurdb/internal/armnet"
)

// taskConn is what one connection to the test runtime carried: the sizes of
// the handshake frames the dispatcher sent on it.
type taskConn struct{ handshakes []int }

// frameSniffer reads the streaming protocol's framing — [type, uint32 length,
// payload] — off the bytes the runtime reads, noting every handshake frame
// (type 1).
type frameSniffer struct {
	net.Conn
	seen *taskConn
	hdr  []byte
	skip int // payload bytes left of the current frame
}

func (s *frameSniffer) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	for b := p[:n]; len(b) > 0; {
		if s.skip > 0 {
			k := min(s.skip, len(b))
			s.skip, b = s.skip-k, b[k:]
			continue
		}
		s.hdr, b = append(s.hdr, b[0]), b[1:]
		if len(s.hdr) == 5 {
			s.skip = int(binary.LittleEndian.Uint32(s.hdr[1:]))
			if s.hdr[0] == 1 {
				s.seen.handshakes = append(s.seen.handshakes, s.skip)
			}
			s.hdr = s.hdr[:0]
		}
	}
	return n, err
}

// startCountingRuntime is an external AI runtime node under the test's eyes:
// a TCP listener that serves every connection with aiengine.ServeTask and
// reports, once a task is over, what its connection carried.
func startCountingRuntime(t *testing.T) (addr string, conns func() []*taskConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		seen []*taskConn
		wg   sync.WaitGroup
		memo = armnet.NewPrefixMemo(armnet.PrefixMemoBytes)
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			tc := &taskConn{}
			mu.Lock()
			seen = append(seen, tc)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				aiengine.ServeTask(&frameSniffer{Conn: conn, seen: tc}, memo)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String(), func() []*taskConn {
		mu.Lock()
		defer mu.Unlock()
		return append([]*taskConn(nil), seen...)
	}
}

// seedReviews creates review(id, a, b, c, score) with n labelled rows.
func seedReviews(t *testing.T, db *DB, n int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE review (id INT PRIMARY KEY, a INT, b INT, c INT, score DOUBLE)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO review VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		a, b, c := i%7, (i/7)%5, (i/35)%3
		fmt.Fprintf(&sb, "(%d,%d,%d,%d,%g)", i, a, b, c, float64(a)/6+float64(b*c)/8)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `ANALYZE review`)
}

// TestPredictIsOneTask: a PREDICT is one task on the runtime — one
// connection, one handshake — over the real TCP framing, whether it trains
// the model or fine-tunes it. The first statement's handshake carries no
// weights (nothing is stored yet, nothing is loaded); each later one carries
// the stored model once; and every statement stores exactly one version.
func TestPredictIsOneTask(t *testing.T) {
	db := openTest(t)
	seedReviews(t, db, 1200)
	addr, conns := startCountingRuntime(t)
	db.AIEngine().AddRuntime(addr)

	statements := []string{
		`PREDICT VALUE OF score FROM review WHERE id >= 1000 AND id < 1150 TRAIN ON a, b, c WITH id < 1000`,
		`PREDICT VALUE OF score FROM review WHERE id >= 1050 AND id < 1200 TRAIN ON a, b, c WITH id >= 50 AND id < 1050`,
		`PREDICT VALUE OF score FROM review TRAIN ON a, b, c VALUES (1, 2, 0), (6, 4, 2)`,
		`PREDICT VALUE OF score FROM review WHERE id < 0 TRAIN ON a, b, c`, // nothing to predict: the task only trains
	}
	for i, sql := range statements {
		res := mustExec(t, db, sql)
		if want := []int{150, 150, 2, 0}[i]; len(res.Predictions) != want {
			t.Fatalf("statement %d: %d predictions, want %d", i, len(res.Predictions), want)
		}
		seen := conns()
		if len(seen) != i+1 {
			t.Fatalf("statement %d: the runtime has served %d connections, want one per PREDICT", i, len(seen))
		}
		hs := seen[i].handshakes
		if len(hs) != 1 {
			t.Fatalf("statement %d: %d handshakes on its connection, want 1", i, len(hs))
		}
		// The default PREDICT model is ~9 KB of weights.
		if i == 0 && hs[0] > 1<<10 {
			t.Fatalf("the first PREDICT shipped a %d-byte handshake: it has no stored weights to send", hs[0])
		}
		if i > 0 && hs[0] < 4<<10 {
			t.Fatalf("statement %d shipped a %d-byte handshake: a fine-tune sends the stored model", i, hs[0])
		}
		view, ok := db.ModelStore().FindViewByName("review.score")
		if !ok {
			t.Fatal("no model bound to review.score")
		}
		if n := len(db.ModelStore().Versions(view.MID)); n != i+1 {
			t.Fatalf("statement %d: %d stored versions, want %d", i, n, i+1)
		}
	}
}

// TestPredictRefusesOtherFeatureList: the model of table.target answers for
// the feature columns it was trained on. A statement that lists others — as
// many or fewer — is refused before it extracts a row or opens a task, with
// both lists in the error; it stores nothing, and the original statement
// keeps working.
func TestPredictRefusesOtherFeatureList(t *testing.T) {
	db := openTest(t)
	seedReviews(t, db, 400)
	addr, conns := startCountingRuntime(t)
	db.AIEngine().AddRuntime(addr)

	const original = `PREDICT VALUE OF score FROM review TRAIN ON a, b VALUES (1, 2)`
	mustExec(t, db, original)
	view, ok := db.ModelStore().FindViewByName("review.score")
	if !ok {
		t.Fatal("no model bound to review.score")
	}
	for _, c := range []struct{ sql, listed string }{
		{`PREDICT VALUE OF score FROM review TRAIN ON b, c VALUES (1, 2)`, "(b, c)"},
		{`PREDICT VALUE OF score FROM review TRAIN ON a VALUES (1)`, "(a)"},
		{`PREDICT VALUE OF score FROM review TRAIN ON b, a VALUES (1, 2)`, "(b, a)"},
		{`PREDICT VALUE OF score FROM review TRAIN ON *`, "(a, b, c)"},
	} {
		_, err := db.Exec(c.sql)
		if err == nil || !strings.Contains(err.Error(), "trained on (a, b)") || !strings.Contains(err.Error(), c.listed) {
			t.Fatalf("%s: error %v, want one naming (a, b) and %s", c.sql, err, c.listed)
		}
	}
	if n := len(db.ModelStore().Versions(view.MID)); n != 1 {
		t.Fatalf("refused statements stored versions: %d, want 1", n)
	}
	if n := len(conns()); n != 1 {
		t.Fatalf("refused statements opened tasks: %d connections, want 1", n)
	}
	if res := mustExec(t, db, original); len(res.Predictions) != 1 {
		t.Fatalf("the original statement after the refusals: %d predictions", len(res.Predictions))
	}
	if v, _ := db.ModelStore().FindViewByName("review.score"); v.MID != view.MID || len(db.ModelStore().Versions(v.MID)) != 2 {
		t.Fatal("the original statement did not fine-tune the model it trained")
	}
}
