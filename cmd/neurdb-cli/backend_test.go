package main

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"neurdb"
	"neurdb/client"
	"neurdb/internal/server"
)

// TestBackendsPrintAlike runs the same statements through the embedded
// engine and through a wire server and requires the shell to print the same
// thing: EXPLAIN, a PREDICT that returns rows, one that matches nothing and
// one that fails. The wire path learns columns from Describe before
// executing, so a statement that fails at execution must still print no
// header, as embedded. Error lines are compared by engine message, since the
// wire client prefixes its own.
func TestBackendsPrintAlike(t *testing.T) {
	srvDB := neurdb.Open(neurdb.DefaultConfig())
	defer srvDB.Close()
	srv := server.New(srvDB, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conn, err := client.Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	embDB := neurdb.Open(neurdb.DefaultConfig())
	defer embDB.Close()
	backends := map[string]backend{
		"wire":     &netBackend{conn: conn},
		"embedded": &embedBackend{session: embDB.NewSession()},
	}

	const setup = `CREATE TABLE churn (id INT PRIMARY KEY, plan INT, tickets INT, left_us INT);
INSERT INTO churn VALUES
  (1,0,0,0),(2,0,1,0),(3,0,0,0),(4,0,1,0),(5,1,8,1),(6,1,9,1),(7,1,8,1),(8,1,9,1),
  (9,0,0,0),(10,0,1,0),(11,1,9,1),(12,1,8,1),(13,0,1,0),(14,1,9,1),(15,0,0,0),(16,1,8,1);`
	// first is the line each statement's output must start with.
	cases := []struct {
		name, sql, first string
		fails            bool
	}{
		{"setup", setup, "CREATE TABLE\n", false},
		{"explain", `EXPLAIN PREDICT CLASS OF left_us FROM churn WHERE id >= 15 TRAIN ON plan, tickets WITH id < 15;`, "plan\n", false},
		{"predict rows", `PREDICT CLASS OF left_us FROM churn TRAIN ON plan, tickets VALUES (0, 0), (1, 9);`, "prediction\n0\n1\n", false},
		{"predict nothing", `PREDICT CLASS OF left_us FROM churn WHERE id > 100 TRAIN ON plan, tickets WITH id < 15;`, "prediction\nPREDICT", false},
		{"predict fails", `PREDICT CLASS OF left_us FROM churn WHERE id >= 15 TRAIN ON tickets WITH id < 15;`, "error: ", true},
	}
	for _, c := range cases {
		out := map[string]string{}
		for name, be := range backends {
			var buf bytes.Buffer
			if ok := runScript(be, strings.NewReader(c.sql), &buf); ok == c.fails {
				t.Fatalf("%s over %s: succeeded=%v, want %v:\n%s", c.name, name, ok, !c.fails, buf.String())
			}
			text := buf.String()
			if c.fails {
				text = strings.Replace(text, "error: neurdb: ", "error: ", 1)
			}
			out[name] = text
		}
		if out["wire"] != out["embedded"] {
			t.Errorf("%s: wire printed\n%s\nembedded printed\n%s", c.name, out["wire"], out["embedded"])
		}
		if !strings.HasPrefix(out["wire"], c.first) {
			t.Errorf("%s: output does not start with %q:\n%s", c.name, c.first, out["wire"])
		}
	}
}
