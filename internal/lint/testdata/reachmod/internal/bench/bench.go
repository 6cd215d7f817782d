// Package bench is figure code: its references reach nothing.
package bench

import "neurdb/internal/srv"

func Figure() int { return srv.BenchOnly() }
