package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neurdb/internal/vfs"
)

// span is one timed call from the benchmark into a layer. Start and End are
// nanoseconds since the tracer was created; Parent indexes the span that
// caused this one (-1 for a root); spans of one operation share OpID (-1 for
// work no single operation owns, such as a group-commit fsync).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int64  `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. All spans are recorded by
// benchmark code around its calls into the engine; the engine is not
// instrumented. A nil *tracer records nothing, which is how untraced runs
// pay no tracing cost.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // recording window open
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, or -1 when not recording.
func (t *tracer) begin(name string, parent int, opID int64) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, OpID: opID})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// durationsMs returns the duration of every span with the given name.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// snapshot copies the spans recorded so far. The engine may still be open
// when the run is summarized, and a background fsync that began inside the
// recording window ends its span whenever it returns, so readers work on a
// copy taken under the lock.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeSpans stores spans as JSON at path.
func writeSpans(path string, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover (overlapping children are not counted
// twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int) int { return int(spans[a].Start - spans[b].Start) })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, at), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanSummary is the per-name digest the traced run prints.
type spanSummary struct {
	Name           string
	Count          int
	MedianMs       float64
	MedianSelfMs   float64
	TotalSelfShare float64 // of all self time recorded
}

func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	type acc struct{ dur, self []float64 }
	byName := map[string]*acc{}
	total := 0.0
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		a.dur = append(a.dur, float64(s.End-s.Start)/1e6)
		a.self = append(a.self, float64(self[i])/1e6)
		total += float64(self[i]) / 1e6
	}
	var out []spanSummary
	for name, a := range byName {
		sum := 0.0
		for _, v := range a.self {
			sum += v
		}
		share := 0.0
		if total > 0 {
			share = sum / total
		}
		out = append(out, spanSummary{name, len(a.dur), median(a.dur), median(a.self), share})
	}
	slices.SortFunc(out, func(a, b spanSummary) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// ioCounts is what the filesystem wrapper has seen since it was created.
type ioCounts struct{ walBytes, walSyncs, ckptBytes int64 }

// countingFS wraps the filesystem handed to the engine as Config.FS. It
// counts bytes and fsyncs per file class (WAL segment, checkpoint, other) and
// times every fsync — the wal+vfs layer measured at its boundary.
type countingFS struct {
	vfs.FS
	tr *tracer

	walBytes, walSyncs, ckptBytes atomic.Int64
}

func newCountingFS(tr *tracer) *countingFS { return &countingFS{FS: vfs.OS, tr: tr} }

func (c *countingFS) counts() ioCounts {
	return ioCounts{c.walBytes.Load(), c.walSyncs.Load(), c.ckptBytes.Load()}
}

type fileClass uint8

const (
	classOther fileClass = iota
	classWAL
	classCkpt
)

func classify(name string) fileClass {
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "wal-"):
		return classWAL
	case strings.HasPrefix(base, "checkpoint-"):
		return classCkpt
	}
	return classOther
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, class: classify(name)}, nil
}

func (c *countingFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, class: classify(name)}, nil
}

type countingFile struct {
	vfs.File
	fs    *countingFS
	class fileClass
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	switch f.class {
	case classWAL:
		f.fs.walBytes.Add(int64(n))
	case classCkpt:
		f.fs.ckptBytes.Add(int64(n))
	}
	return n, err
}

// Sync counts the fsync and, while the tracer records, makes it a span: the
// WAL's fsync latencies are read back from the spans named vfs.sync:wal.
func (f *countingFile) Sync() error {
	name := "vfs.sync:other"
	switch f.class {
	case classWAL:
		name = "vfs.sync:wal"
		f.fs.walSyncs.Add(1)
	case classCkpt:
		name = "vfs.sync:checkpoint"
	}
	sp := f.fs.tr.begin(name, -1, -1)
	defer f.fs.tr.end(sp)
	return f.File.Sync()
}

// wireCounts is what the listener wrapper has seen on all server-side
// connections since it was created.
type wireCounts struct{ bytes, writes int64 }

// countingListener wraps the listener handed to server.Serve: every accepted
// connection counts the bytes it moves in both directions and the Write
// calls the server issues (one per flush of its frame buffer).
type countingListener struct {
	net.Listener
	bytes, writes atomic.Int64
}

func (l *countingListener) counts() wireCounts {
	return wireCounts{l.bytes.Load(), l.writes.Load()}
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.bytes.Add(int64(n))
	c.l.writes.Add(1)
	return n, err
}
