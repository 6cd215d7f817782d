package main

import "neurdb/internal/srv"

func main() {
	srv.Run(srv.Config{Port: 5433})
}
