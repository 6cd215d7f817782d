package srv

import "fmt"

// Config is a knob struct: live code must write each field.
type Config struct {
	Port    int
	Verbose bool // want reach:"knob srv\.Config\.Verbose is set by no request path"
	// Quiet is only ever read, negated: reading is not setting.
	Quiet bool // want reach:"knob srv\.Config\.Quiet is set by no request path"
	// FS is a seam for test fakes, not a knob.
	FS FS
}

// FS is what Config.FS holds.
type FS interface{ Open(name string) error }

// Thing is reached from Run; String is reached through fmt.Stringer and
// GoString through fmt.GoStringer, which %#v calls.
type Thing struct{ N int }

func (t Thing) String() string { return fmt.Sprint(t.N) }

func (t Thing) GoString() string { return fmt.Sprintf("srv.Thing{N: %d}", t.N) }

// Run is what the server calls.
func Run(cfg Config) {
	if cfg.Verbose && !cfg.Quiet {
		fmt.Println(Thing{N: cfg.Port}, Helper())
	}
}

// Helper is reached, so its reservation is stale.
//
//neurdb:reserved direction 3
func Helper() int { return 1 } // want reach:"srv\.Helper is reserved, but a request path reaches it"

// Later is kept for a direction that has not landed.
//
//neurdb:reserved direction 7
func Later() {}

// Someday names no direction.
//
//neurdb:reserved
func Someday() {} // want reach:"reservation of srv\.Someday names no direction"

// Unused has no caller at all.
func Unused() {} // want reach:"srv\.Unused is reached by no request path"

// BenchOnly is called only by figure code.
func BenchOnly() int { return 2 } // want reach:"srv\.BenchOnly is reached by no request path"

// Extra is a method no interface and no caller reaches.
func (t Thing) Extra() {} // want reach:"\(srv\.Thing\)\.Extra is reached by no request path"
