package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"

	"raven"
	"raven/internal/server"
)

// Replica is one in-process ravenserved instance on a loopback port:
// the unit this package's tests compose clusters from. A production
// cluster runs the same server as separate processes (benchmark/ puts a
// real ravenrouter child in front of a real ravenserved child);
// everything above the listener is identical.
type Replica struct {
	Name string
	Base string // http://127.0.0.1:port
	DB   *raven.DB
	Srv  *server.Server

	l        net.Listener
	serveErr chan error
}

// SpawnReplica opens a raven.DB with opts, wraps it in a server with
// srvOpts, and serves it on a fresh loopback port.
func SpawnReplica(name string, srvOpts server.Options, opts ...raven.Option) (*Replica, error) {
	return SpawnReplicaOn(name, "127.0.0.1:0", srvOpts, opts...)
}

// SpawnReplicaOn is SpawnReplica on a fixed address — restart tests use
// it to bring a "new process" back up where the old one died, so the
// router's member (keyed by base URL) sees a catalog-version regression
// instead of a new member.
func SpawnReplicaOn(name, addr string, srvOpts server.Options, opts ...raven.Option) (*Replica, error) {
	db, err := raven.Open(opts...)
	if err != nil {
		return nil, fmt.Errorf("replica %s: %w", name, err)
	}
	srv := server.New(db, srvOpts)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replica %s: %w", name, err)
	}
	r := &Replica{
		Name:     name,
		Base:     "http://" + l.Addr().String(),
		DB:       db,
		Srv:      srv,
		l:        l,
		serveErr: make(chan error, 1),
	}
	go func() { r.serveErr <- srv.Serve(l) }()
	return r, nil
}

// Close drains the replica gracefully (two-phase if its DrainGrace is
// set, which drains the engine too) and waits for the serve loop.
func (r *Replica) Close(ctx context.Context) error {
	err := r.Srv.Shutdown(ctx)
	if serr := <-r.serveErr; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// Kill drops the replica without draining, the way a crash would: the
// listener and every active connection close immediately, cutting
// in-flight responses mid-stream. The router sees transport failures.
func (r *Replica) Kill() {
	r.Srv.Abort()
	<-r.serveErr
}

// Addr returns the replica's host:port (for SpawnReplicaOn restarts).
func (r *Replica) Addr() string { return r.l.Addr().String() }

// tenantHomedOn searches tenant names until one's rendezvous home is
// the wanted member — how tests pin traffic to a chosen replica.
func tenantHomedOn(rt *Router, member string) string {
	for i := 0; ; i++ {
		tn := fmt.Sprintf("tenant%d", i)
		if rt.HomeFor(tn) == member {
			return tn
		}
	}
}
