// Command ravenrouter fronts N ravenserved replicas with one serving
// endpoint speaking the same wire protocol as a single replica — point
// any raven client at the router and it sees one bigger, more available
// server.
//
// Usage:
//
//	ravenrouter [-addr :8090] -replica name=http://host:port ...
//
// The router is a proxy: it decodes request bodies and X-Raven-* headers
// with the replica's own code, so it accepts and refuses exactly what a
// replica does, and forwards all five request-option headers. It
// health-checks every replica every 250ms (jittered ±25%) and converges
// membership (healthy / degraded / draining / down; two failed probes
// mark a replica down). Reads route by rendezvous-hashed tenant
// affinity — a tenant's queries keep hitting the same replica, so its
// result cache and statement registry stay warm — spilling to the
// least-loaded healthy replica when the home's admission queue is 4
// deep, with up to 3 attempts across replicas (exponential backoff +
// jitter). Side-effect scripts (POST /query without a SELECT) and
// stored models (POST /model) replicate to every replica through an
// ordered log with catalog-version read-back; replicas that restart or
// miss entries are repaired by replay before they take traffic again.
// Prepared statements get router-side ids, prepared lazily per replica
// and re-prepared transparently after a replica restart. GET /stats
// aggregates the whole cluster; GET /healthz is 200 while at least one
// replica is routable.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"raven/internal/cluster"
)

// replicaFlags collects repeatable -replica flags: name=base, or a bare
// base URL (named replica1, replica2, ... in order).
type replicaFlags []struct{ name, base string }

func (f *replicaFlags) String() string {
	var parts []string
	for _, r := range *f {
		parts = append(parts, r.name+"="+r.base)
	}
	return strings.Join(parts, ",")
}

func (f *replicaFlags) Set(v string) error {
	name, base, ok := strings.Cut(v, "=")
	if !ok {
		name, base = fmt.Sprintf("replica%d", len(*f)+1), v
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	*f = append(*f, struct{ name, base string }{name, base})
	return nil
}

func main() {
	addr := flag.String("addr", ":8090", "listen address (host:port)")
	var replicas replicaFlags
	flag.Var(&replicas, "replica", "replica to front, as name=http://host:port or a bare URL (repeatable)")
	flag.Parse()

	if len(replicas) == 0 {
		fmt.Fprintln(os.Stderr, "no replicas: pass at least one -replica name=http://host:port")
		os.Exit(2)
	}

	rt := cluster.New()
	for _, r := range replicas {
		if err := rt.AddMember(r.name, r.base); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	rt.Start()
	defer rt.Close()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ravenrouter listening on %s, fronting %d replicas\n", l.Addr(), len(replicas))

	srv := &http.Server{Handler: rt.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	case s := <-sig:
		// The router holds no query state worth draining — replicas do
		// their own graceful drains — so closing the listener (which
		// waits for nothing) and letting in-flight proxies finish via
		// Shutdown is enough.
		fmt.Fprintf(os.Stderr, "%v: shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
			os.Exit(1)
		}
		<-serveErr
	}
}
