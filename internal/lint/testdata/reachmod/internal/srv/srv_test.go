package srv

import "testing"

func TestVerbose(t *testing.T) {
	Run(Config{Verbose: true})
	Unused()
}
