package client_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"neurdb"
	"neurdb/client"
)

// The client decodes every DataBatch into rows carved from one value slab
// its reader reuses, and the server streams through per-connection row and
// portal buffers. These tests hold the wire results of statement sequences
// that would expose a stale or shared buffer — wide rows followed by narrow
// ones, values kept across statements, suspended portals, a canceled stream
// — against the embedded engine's.

// loadDocs creates doc(id, title, body, n) with n rows whose body lengths
// vary from 0 to a few hundred bytes, so consecutive batches differ in
// width.
func loadDocs(t *testing.T, ndb *neurdb.DB, n int) {
	t.Helper()
	if _, err := ndb.Exec(`CREATE TABLE doc (id INT PRIMARY KEY, title TEXT, body TEXT, n INT)`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(`INSERT INTO doc VALUES `)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		body := strings.Repeat(string(rune('a'+i%26)), (i*37)%300)
		if i%11 == 0 {
			body = "NULL"
		} else {
			body = "'" + body + "'"
		}
		fmt.Fprintf(&sb, "(%d,'t%d',%s,%d)", i, i, body, i%7)
	}
	if _, err := ndb.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// TestWireReuseWideThenNarrow runs statements whose results shrink in value
// width, column count and row count on one connection, simple and prepared,
// chunked at a fetch size that splits each executor batch unevenly: every
// result must match the embedded engine's exactly.
func TestWireReuseWideThenNarrow(t *testing.T) {
	ndb, addr := startServer(t)
	loadDocs(t, ndb, 1000)
	session := ndb.NewSession()
	defer session.Close()
	for _, fetch := range []int{-1, 300, 7} {
		c, err := client.ConnectOptions(addr, client.Options{FetchSize: fetch})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			`SELECT id, title, body, n FROM doc WHERE id < 600`,
			`SELECT title FROM doc WHERE id >= 990`,
			`SELECT id, body FROM doc WHERE id >= 300 AND id < 320`,
			`SELECT n FROM doc WHERE id = 5`,
			`SELECT body, title, id, n FROM doc`,
			`SELECT id FROM doc WHERE id = -1`,
			`SELECT title, n FROM doc WHERE id < 3`,
		} {
			want := embeddedResult(t, session, q)
			rows, err := c.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := wireResult(t, rows); got != want {
				t.Fatalf("fetch %d, simple %q:\nwire:     %.300q\nembedded: %.300q", fetch, q, got, want)
			}
			st, err := c.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			rows, err = st.Query()
			if err != nil {
				t.Fatal(err)
			}
			if got := wireResult(t, rows); got != want {
				t.Fatalf("fetch %d, prepared %q:\nwire:     %.300q\nembedded: %.300q", fetch, q, got, want)
			}
			st.Close()
		}
		c.Close()
	}
}

// TestWireReuseValuesOutliveStatement keeps what Scan, Values and RowText
// returned for statement N and checks it after statement N+1 has streamed
// different values through the same buffers.
func TestWireReuseValuesOutliveStatement(t *testing.T) {
	ndb, addr := startServer(t)
	loadDocs(t, ndb, 400)
	c, err := client.ConnectOptions(addr, client.Options{FetchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare(`SELECT id, title, body FROM doc WHERE id >= ? AND id < ?`)
	if err != nil {
		t.Fatal(err)
	}

	type kept struct {
		id           int64
		title, body  string
		anyBody      any
		values, text string
	}
	collect := func(lo, hi int) []kept {
		rows, err := st.Query(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var out []kept
		for rows.Next() {
			var k kept
			if err := rows.Scan(&k.id, &k.title, &k.anyBody); err != nil {
				t.Fatal(err)
			}
			var skip any
			if err := rows.Scan(&skip, &skip, &k.body); err != nil {
				t.Fatal(err)
			}
			k.values = fmt.Sprint(rows.Values())
			k.text = rows.RowText()
			out = append(out, k)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	snapshot := func(ks []kept) string { return fmt.Sprintf("%#v", ks) }

	first := collect(0, 300) // wide bodies, three DataBatch chunks
	before := snapshot(first)
	for _, r := range [][2]int{{300, 400}, {0, 300}, {150, 151}} {
		collect(r[0], r[1])
		if _, err := c.Exec(`SELECT title FROM doc WHERE id < 50`); err != nil {
			t.Fatal(err)
		}
	}
	if after := snapshot(first); after != before {
		t.Fatalf("values kept from an earlier statement changed:\nbefore: %.400s\nafter:  %.400s", before, after)
	}
	if len(first) != 300 || first[299].id != 299 || first[12].title != "t12" {
		t.Fatalf("unexpected first result: %d rows", len(first))
	}
}

// TestWireReuseSuspendedPortal resumes a suspended portal — which holds a
// read-ahead row on the server — over chunks of different sizes, binding
// the statement anew between cursors; each cursor must return exactly the
// embedded rows.
func TestWireReuseSuspendedPortal(t *testing.T) {
	ndb, addr := startServer(t)
	loadDocs(t, ndb, 1000)
	session := ndb.NewSession()
	defer session.Close()
	for _, fetch := range []int{1, 255, 256, 257, 700} {
		c, err := client.ConnectOptions(addr, client.Options{FetchSize: fetch})
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Prepare(`SELECT id, body FROM doc WHERE id >= ? AND id < ?`)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, 1000}, {10, 12}, {500, 900}, {999, 1000}} {
			want := embeddedResult(t, session, fmt.Sprintf(`SELECT id, body FROM doc WHERE id >= %d AND id < %d`, r[0], r[1]))
			rows, err := st.Query(r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			if got := wireResult(t, rows); got != want {
				t.Fatalf("fetch %d, range %v:\nwire:     %.300q\nembedded: %.300q", fetch, r, got, want)
			}
		}
		// A cursor abandoned while suspended, then a rebind of the same
		// unnamed portal.
		rows, err := st.Query(0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		rows.Next()
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		want := embeddedResult(t, session, `SELECT id, body FROM doc WHERE id >= 40 AND id < 45`)
		rows, err = st.Query(40, 45)
		if err != nil {
			t.Fatal(err)
		}
		if got := wireResult(t, rows); got != want {
			t.Fatalf("fetch %d after abandoned cursor:\nwire:     %q\nembedded: %q", fetch, got, want)
		}
		c.Close()
	}
}

// TestWireReuseAfterCancelAndError cancels a chunked stream, then runs a
// statement that fails at Bind and one that fails at planning, then normal
// ones: the connection's buffers must carry nothing of the earlier three.
func TestWireReuseAfterCancelAndError(t *testing.T) {
	ndb, addr := startServer(t)
	loadDocs(t, ndb, 1000)
	session := ndb.NewSession()
	defer session.Close()
	c, err := client.ConnectOptions(addr, client.Options{FetchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare(`SELECT id, title, body FROM doc WHERE id >= ? AND id < ?`)
	if err != nil {
		t.Fatal(err)
	}

	rows, err := st.Query(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal(rows.Err())
	}
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	// Cancel returns once the server has applied it; the suspended portal
	// dies at its next resume.
	n := 1
	for rows.Next() {
		n++
	}
	var srvErr *client.Error
	if !errors.As(rows.Err(), &srvErr) || srvErr.Code != "CANCELED" || n >= 1000 {
		t.Fatalf("canceled stream: %d rows, err %v", n, rows.Err())
	}
	rows.Close()

	// A failure surfaces at Query or at the first Next.
	mustFail := func(what string, rows *client.Rows, err error) {
		t.Helper()
		if err == nil {
			for rows.Next() {
			}
			err = rows.Err()
			rows.Close()
		}
		if err == nil {
			t.Fatalf("%s succeeded", what)
		}
	}
	rows, err = st.Query(1, 2, 3)
	mustFail("Bind with a wrong argument count", rows, err)
	rows, err = c.Query(`SELECT nope FROM doc`)
	mustFail("query of a missing column", rows, err)

	for _, r := range [][2]int{{7, 9}, {100, 400}} {
		want := embeddedResult(t, session, fmt.Sprintf(`SELECT id, title, body FROM doc WHERE id >= %d AND id < %d`, r[0], r[1]))
		rows, err := st.Query(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if got := wireResult(t, rows); got != want {
			t.Fatalf("range %v after cancel and errors:\nwire:     %.300q\nembedded: %.300q", r, got, want)
		}
	}
	want := embeddedResult(t, session, `SELECT n, title FROM doc WHERE id < 20`)
	rows, err = c.Query(`SELECT n, title FROM doc WHERE id < 20`)
	if err != nil {
		t.Fatal(err)
	}
	if got := wireResult(t, rows); got != want {
		t.Fatalf("simple query after cancel and errors:\nwire:     %q\nembedded: %q", got, want)
	}
}
