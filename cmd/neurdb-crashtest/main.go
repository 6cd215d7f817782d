// neurdb-crashtest is the durability torture harness behind CI's
// crash-recovery job. It boots a real neurdb-server on a data directory,
// drives a concurrent commit storm over the wire while journaling every
// attempt and every server acknowledgment client-side, SIGKILLs the server
// mid-storm, restarts it on the same directory, and then checks the
// durability contract differentially against the journal:
//
//   - no acknowledged commit is lost (acked ⊆ recovered),
//   - no phantom appears (recovered ⊆ attempted),
//   - each writer's recovered rows are a gapless prefix of its serial
//     attempt sequence (at most the one in-flight row beyond the last ack).
//
// Exit codes: 0 = contract holds, 1 = durability violation, 2 = harness
// failure (server would not start, wire errors before the kill, ...).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"neurdb/client"
)

type journal struct {
	mu    sync.Mutex
	tried map[int64]bool
	acked map[int64]bool
	f     *os.File
}

func (j *journal) note(kind string, id int64, ack bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ack {
		j.acked[id] = true
	} else {
		j.tried[id] = true
	}
	if j.f != nil {
		fmt.Fprintf(j.f, "%s %d\n", kind, id)
	}
}

func (j *journal) counts() (tried, acked int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.tried), len(j.acked)
}

func main() {
	serverBin := flag.String("server", "./neurdb-server", "path to the neurdb-server binary")
	dataDir := flag.String("data", "", "data directory (default: fresh temp dir)")
	writers := flag.Int("writers", 8, "concurrent commit-storm writers")
	ackTarget := flag.Int("acks", 500, "acknowledged commits before the kill")
	timeout := flag.Duration("timeout", 60*time.Second, "overall storm deadline")
	walSync := flag.String("wal-sync", "commit", "server WAL sync mode under test")
	flag.Parse()

	if *dataDir == "" {
		d, err := os.MkdirTemp("", "neurdb-crashtest-")
		if err != nil {
			fatal(2, "mkdtemp: %v", err)
		}
		defer os.RemoveAll(d)
		*dataDir = d
	}
	addr := freeAddr()
	j := &journal{tried: map[int64]bool{}, acked: map[int64]bool{}}
	if f, err := os.Create(filepath.Join(*dataDir, "client-journal.txt")); err == nil {
		j.f = f
		defer f.Close()
	}

	// Phase 1: boot the victim and run the storm.
	srv, srvExited := startServer(*serverBin, addr, *dataDir, *walSync)
	setup, err := client.Connect(addr)
	if err != nil {
		fatal(2, "connect: %v", err)
	}
	if _, err := setup.Exec(`CREATE TABLE storm (id INT PRIMARY KEY, payload TEXT)`); err != nil {
		fatal(2, "create table: %v", err)
	}
	setup.Close()

	var wg sync.WaitGroup
	for w := 0; w < *writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Connect(addr)
			if err != nil {
				return
			}
			defer c.Close()
			stmt, err := c.Prepare(`INSERT INTO storm VALUES (?, ?)`)
			if err != nil {
				return
			}
			payload := strings.Repeat("x", 64)
			for seq := 0; ; seq++ {
				id := int64(w)*1_000_000 + int64(seq)
				j.note("try", id, false)
				if _, err := stmt.Exec(id, payload); err != nil {
					return // the kill severed us mid-commit; exactly what we want
				}
				j.note("ack", id, true)
			}
		}(w)
	}

	deadline := time.Now().Add(*timeout)
	for {
		if _, acks := j.counts(); acks >= *ackTarget {
			break
		}
		if time.Now().After(deadline) {
			srv.Process.Kill()
			fatal(2, "storm never reached %d acks before deadline", *ackTarget)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 2: kill -9 mid-storm.
	if err := srv.Process.Signal(syscall.SIGKILL); err != nil {
		fatal(2, "SIGKILL: %v", err)
	}
	<-srvExited
	wg.Wait()
	tried, acked := j.counts()
	fmt.Printf("crashtest: killed server after %d acked / %d attempted commits\n", acked, tried)

	// Phase 3: restart on the same directory and verify recovery.
	addr2 := freeAddr()
	srv2, srv2Exited := startServer(*serverBin, addr2, *dataDir, *walSync)
	defer func() {
		srv2.Process.Signal(syscall.SIGTERM)
		<-srv2Exited
	}()
	c, err := client.Connect(addr2)
	if err != nil {
		fatal(2, "connect after restart: %v", err)
	}
	defer c.Close()
	rows, err := c.Query(`SELECT id FROM storm`)
	if err != nil {
		fatal(1, "query recovered table: %v", err)
	}
	recovered := map[int64]bool{}
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id); err != nil {
			fatal(2, "scan: %v", err)
		}
		if recovered[id] {
			fatal(1, "row %d recovered twice", id)
		}
		recovered[id] = true
	}
	if err := rows.Err(); err != nil {
		fatal(2, "rows: %v", err)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	for id := range j.acked {
		if !recovered[id] {
			fatal(1, "DURABILITY VIOLATION: acked commit %d lost (%d acked, %d recovered)",
				id, len(j.acked), len(recovered))
		}
	}
	for id := range recovered {
		if !j.tried[id] {
			fatal(1, "DURABILITY VIOLATION: recovered row %d was never attempted", id)
		}
	}
	maxSeq := map[int64]int64{}
	for id := range recovered {
		if w, seq := id/1_000_000, id%1_000_000; seq > maxSeq[w] {
			maxSeq[w] = seq
		}
	}
	for w, m := range maxSeq {
		for seq := int64(0); seq <= m; seq++ {
			if !recovered[w*1_000_000+seq] {
				fatal(1, "DURABILITY VIOLATION: writer %d row %d missing below recovered max %d", w, seq, m)
			}
		}
	}
	fmt.Printf("crashtest: OK — %d attempted, %d acked, %d recovered, no acked commit lost\n",
		len(j.tried), len(j.acked), len(recovered))
}

// startServer spawns the server and waits for its listener (or its early
// death, reported with captured output). The returned channel closes when
// the server has exited: its one cmd.Wait runs here, and a second Wait
// would block for ever on the output copy it already finished.
func startServer(bin, addr, dataDir, walSync string) (*exec.Cmd, <-chan struct{}) {
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir, "-wal-sync", walSync, "-grace", "2s")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		fatal(2, "start %s: %v", bin, err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return cmd, exited
		}
		select {
		case <-exited:
			fatal(2, "server exited before listening:\n%s", out.String())
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			fatal(2, "server never listened on %s:\n%s", addr, out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(2, "reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crashtest: "+format+"\n", args...)
	os.Exit(code)
}
