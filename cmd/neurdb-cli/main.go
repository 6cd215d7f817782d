// neurdb-cli is a SQL shell for NeurDB. By default it connects to a
// neurdb-server over the binary wire protocol and executes every statement
// as a server-side prepared statement (Parse/Bind/Execute), so repeated
// statements hit the server's plan cache and SELECTs stream one batch at a
// time. With -embedded it runs against an in-process engine instead.
//
// Statements are read with a streaming splitter that has no per-line or
// per-statement size ceiling (the old line-based shell silently stopped at
// 1 MiB): scripts with multi-megabyte INSERT statements work both from
// stdin and via -f.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"neurdb"
	"neurdb/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5433", "server address")
	embedded := flag.Bool("embedded", false, "run an in-process engine instead of connecting")
	script := flag.String("f", "", "execute statements from a script file and exit")
	fetch := flag.Int("fetch", 0, "rows per fetch chunk for streamed SELECTs (0 = driver default)")
	maxFrame := flag.Int("max-frame", 0, "max incoming frame payload bytes (0 = 16 MiB default)")
	flag.Parse()

	var be backend
	if *embedded {
		db := neurdb.Open(neurdb.DefaultConfig())
		be = &embedBackend{session: db.NewSession()}
	} else {
		conn, err := client.ConnectOptions(*addr, client.Options{FetchSize: *fetch, MaxFrame: *maxFrame})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer conn.Close()
		be = &netBackend{conn: conn}
	}

	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer f.Close()
		if !runScript(be, f, os.Stdout) {
			os.Exit(1)
		}
		return
	}

	if !stdinIsTerminal() {
		// Piped input is a script: stream it with no size ceiling.
		if !runScript(be, os.Stdin, os.Stdout) {
			os.Exit(1)
		}
		return
	}
	if *embedded {
		fmt.Println("NeurDB shell (embedded) — end statements with ';' (quit with \\q)")
	} else {
		fmt.Printf("NeurDB shell — connected to %s (quit with \\q)\n", *addr)
	}
	repl(be)
}

// repl is the interactive loop: lines accumulate until one carries ';',
// then the buffer is split and executed. Bare "exit"/"quit"/"\q" on their
// own line leave immediately, even mid-statement.
func repl(be backend) {
	in := bufio.NewReader(os.Stdin)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("neurdb> ")
		} else {
			fmt.Print("   ...> ")
		}
	}
	prompt()
	for {
		line, err := in.ReadString('\n')
		trimmed := strings.ToLower(strings.TrimSpace(line))
		if trimmed == `\q` || trimmed == "exit" || trimmed == "quit" {
			return
		}
		buf.WriteString(line)
		if !strings.Contains(line, ";") && err == nil {
			prompt()
			continue
		}
		// Execute the complete (';'-terminated) statements in the buffer;
		// an unterminated tail — e.g. a ';' inside a still-open string
		// literal tripped the Contains check — stays buffered for the
		// next line instead of running early.
		chunk := bufio.NewReader(strings.NewReader(buf.String()))
		buf.Reset()
		for {
			stmt, rerr := readStatement(chunk)
			if errors.Is(rerr, io.EOF) && stmt != "" && err == nil {
				buf.WriteString(stmt)
				buf.WriteByte('\n')
				break
			}
			if stmt != "" && !strings.HasPrefix(stmt, `\`) {
				if eerr := be.run(stmt, os.Stdout); eerr != nil {
					fmt.Println("error:", eerr)
				}
			}
			if rerr != nil {
				break
			}
		}
		if err != nil {
			return // EOF on stdin
		}
		prompt()
	}
}

// runScript executes statements from r, stopping at the first error.
func runScript(be backend, r io.Reader, out io.Writer) bool {
	in := bufio.NewReader(r)
	for {
		stmt, err := readStatement(in)
		if stmt != "" && !strings.HasPrefix(stmt, `\`) {
			if rerr := be.run(stmt, out); rerr != nil {
				fmt.Fprintln(out, "error:", rerr)
				return false
			}
		}
		if err != nil {
			return true // EOF
		}
	}
}

// readStatement streams the next semicolon-terminated statement from r with
// no size ceiling, respecting single-quoted string literals (with doubled
// quote escapes), `--` line comments and `/* */` block comments — the same
// lexical classes the engine lexer skips. A backslash command at statement
// start ("\q") is returned as-is. A chunk holding only comments/whitespace
// comes back as the empty statement (callers skip it), so a script may end
// with a trailing comment. io.EOF is returned alongside a final
// unterminated statement, or with an empty statement at end of input.
func readStatement(r *bufio.Reader) (string, error) {
	var sb strings.Builder
	inStr, inComment, inBlock, started := false, false, false, false
	hasContent := false // any byte outside comments and whitespace
	finish := func(err error) (string, error) {
		if !hasContent {
			return "", err
		}
		return strings.TrimSpace(sb.String()), err
	}
	for {
		ch, err := r.ReadByte()
		if err != nil {
			return finish(io.EOF)
		}
		if !started {
			switch ch {
			case ' ', '\t', '\n', '\r', ';':
				continue
			case '\\':
				line, err := r.ReadString('\n')
				if err != nil && !errors.Is(err, io.EOF) {
					return "", err
				}
				return `\` + strings.TrimSpace(line), nil
			}
			started = true
		}
		switch {
		case inComment:
			sb.WriteByte(ch)
			if ch == '\n' {
				inComment = false
			}
		case inBlock:
			sb.WriteByte(ch)
			if ch == '*' {
				if next, err := r.Peek(1); err == nil && next[0] == '/' {
					r.ReadByte()
					sb.WriteByte('/')
					inBlock = false
				}
			}
		case inStr:
			sb.WriteByte(ch)
			if ch == '\'' {
				inStr = false // a doubled '' toggles off and back on
			}
		case ch == ';':
			return finish(nil)
		default:
			switch {
			case ch == '\'':
				inStr = true
				hasContent = true
			case ch == '-':
				if next, err := r.Peek(1); err == nil && next[0] == '-' {
					inComment = true
				} else {
					hasContent = true
				}
			case ch == '/':
				if next, err := r.Peek(1); err == nil && next[0] == '*' {
					inBlock = true
				} else {
					hasContent = true
				}
			case ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r':
				hasContent = true
			}
			sb.WriteByte(ch)
		}
	}
}

// backend abstracts the two execution paths (wire connection, embedded
// engine) behind one statement runner with identical output formatting.
type backend interface {
	run(sql string, out io.Writer) error
}

// netBackend executes over the wire as a prepared statement, streaming the
// result as the server produces batches.
type netBackend struct{ conn *client.Conn }

func (b *netBackend) run(sql string, out io.Writer) error {
	st, err := b.conn.Prepare(sql)
	if err != nil {
		return err
	}
	defer st.Close()
	rows, err := st.Query()
	if err != nil {
		return err
	}
	defer rows.Close()
	// The columns are known from Describe, but the header waits for the
	// first response: a statement that fails before producing anything (a
	// PREDICT whose training fails) prints no header, as embedded.
	more := rows.Next()
	if err := rows.Err(); err != nil {
		return err
	}
	if cols := rows.Columns(); len(cols) > 0 {
		fmt.Fprintln(out, strings.Join(cols, " | "))
	}
	for ; more; more = rows.Next() {
		fmt.Fprintln(out, rows.RowText())
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if tag := rows.Tag(); tag != "" {
		fmt.Fprintln(out, tag)
	}
	return nil
}

// embedBackend executes against an in-process engine through the streaming
// session API.
type embedBackend struct{ session *neurdb.Session }

func (b *embedBackend) run(sql string, out io.Writer) error {
	rows, err := b.session.Query(sql)
	if err != nil {
		return err
	}
	defer rows.Close()
	// Same order as netBackend: a stream that fails on its first batch
	// prints no header on either path.
	more := rows.Next()
	if err := rows.Err(); err != nil {
		return err
	}
	if cols := rows.Columns(); len(cols) > 0 {
		fmt.Fprintln(out, strings.Join(cols, " | "))
	}
	for ; more; more = rows.Next() {
		fmt.Fprintln(out, rows.Row().String())
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if msg := rows.Message(); msg != "" {
		fmt.Fprintln(out, msg)
	}
	return nil
}

// stdinIsTerminal reports whether stdin is an interactive terminal.
func stdinIsTerminal() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
