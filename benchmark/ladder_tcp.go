package main

import (
	"fmt"
	"time"
)

// ladder_tcp.go puts the rig's server behind Serve on a loopback listener
// (via ListenAndServe on port 0). The store is not wrapped and the
// connection is a real TCP one, so the server's vectored write survives.

// serveTCP starts the rig's server on an ephemeral loopback port and
// returns its address; stop shuts it down.
func (r *serverRig) serveTCP() (addr string, stop func(), err error) {
	r.cfg.Addr = "127.0.0.1:0"
	srv := r.build()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	for i := 0; srv.Addr() == "" && i < 5000; i++ {
		select {
		case err := <-errc:
			return "", nil, fmt.Errorf("listen: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
	if srv.Addr() == "" {
		shutdown(srv)
		return "", nil, fmt.Errorf("server did not bind within 5s")
	}
	return srv.Addr(), func() {
		shutdown(srv)
		<-errc
	}, nil
}
