package ort

import (
	"bytes"
	"context"
	"encoding/gob"
	"strings"

	"raven/internal/rescache"
	"raven/internal/tensor"
)

// SessionCache keys compiled sessions by model content hash. It reproduces
// SQL Server's model/inference-session caching across queries (paper §5,
// observation ii: 3 ms vs 20 ms on 100 tuples because the standalone
// runtime reloads the model from disk while the DB serves a cached session).
//
// It is a rescache.Cache: byte-budgeted LRU, so query-specialized
// sessions (one key per distinct query text) cannot grow without bound,
// and per-key singleflight, so a thundering herd on one model compiles it
// once while queries compiling different models never serialize.
type SessionCache struct {
	c *rescache.Cache[cachedSession]
}

// cachedSession carries its key so Invalidate can sweep by model hash.
type cachedSession struct {
	key string
	s   *Session
}

// sessionCacheBytes bounds the weights all cached sessions may hold; one
// session may take a quarter of it. sessionOverheadBytes is charged per
// session on top of its weights, so weightless graphs are bounded too.
const (
	sessionCacheBytes    = 256 << 20
	sessionOverheadBytes = 4 << 10
)

// NewSessionCache returns an empty cache.
func NewSessionCache() *SessionCache {
	return &SessionCache{c: rescache.New[cachedSession](sessionCacheBytes, 0)}
}

// Get returns the cached session for key, or compiles one via build and
// caches it. Only the first caller for a key runs build; concurrent
// callers wait on that key alone (counted as hits — they avoided a
// compile). A build that fails or panics caches nothing and releases its
// waiters to build for themselves.
func (c *SessionCache) Get(key string, build func() (*Session, error)) (*Session, error) {
	// BuildSession has no context to pass: a waiter waits out the build.
	e, err := c.c.Load(context.TODO(), key, nil, func() (cachedSession, int64, error) {
		s, err := build()
		if err != nil {
			return cachedSession{}, 0, err
		}
		size := int64(sessionOverheadBytes)
		for _, t := range s.graph.Initializers {
			size += int64(len(t.Data)) * 8
		}
		return cachedSession{key: key, s: s}, size, nil
	})
	return e.s, err
}

// Invalidate drops every session compiled from the model version with
// this content hash: the plain-hash session and the query-specialized
// ones keyed hash#query.
func (c *SessionCache) Invalidate(modelHash string) {
	c.c.Sweep(func(e cachedSession) bool { return !strings.HasPrefix(e.key, modelHash) })
}

// Stats snapshots the cache counters.
func (c *SessionCache) Stats() rescache.Stats { return c.c.Stats() }

// serializable mirrors Graph for gob: maps with interface values need
// registration, so attrs are encoded via a concrete holder.
type gobGraph struct {
	Name        string
	Nodes       []gobNode
	Inputs      []string
	Outputs     []string
	InitNames   []string
	InitTensors []tensor.Tensor
}

type gobNode struct {
	Op      string
	Name    string
	Inputs  []string
	Outputs []string
	AttrK   []string
	AttrV   []gobAttr
}

type gobAttr struct {
	Kind byte // 'f' float, 'i' int, 'I' []int, 's' string
	F    float64
	I    int
	IS   []int
	S    string
}

// Marshal serializes a graph to bytes (the model format stored in the
// database model store).
func Marshal(g *Graph) ([]byte, error) {
	gg := gobGraph{Name: g.Name, Inputs: g.Inputs, Outputs: g.Outputs}
	for name, t := range g.Initializers {
		gg.InitNames = append(gg.InitNames, name)
		gg.InitTensors = append(gg.InitTensors, *t)
	}
	for _, n := range g.Nodes {
		gn := gobNode{Op: n.Op, Name: n.Name, Inputs: n.Inputs, Outputs: n.Outputs}
		for k, v := range n.Attrs {
			gn.AttrK = append(gn.AttrK, k)
			switch x := v.(type) {
			case float64:
				gn.AttrV = append(gn.AttrV, gobAttr{Kind: 'f', F: x})
			case int:
				gn.AttrV = append(gn.AttrV, gobAttr{Kind: 'i', I: x})
			case []int:
				gn.AttrV = append(gn.AttrV, gobAttr{Kind: 'I', IS: x})
			case string:
				gn.AttrV = append(gn.AttrV, gobAttr{Kind: 's', S: x})
			}
		}
		gg.Nodes = append(gg.Nodes, gn)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gg); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal reverses Marshal.
func Unmarshal(data []byte) (*Graph, error) {
	var gg gobGraph
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&gg); err != nil {
		return nil, err
	}
	g := NewGraph(gg.Name)
	g.Inputs = gg.Inputs
	g.Outputs = gg.Outputs
	for i, name := range gg.InitNames {
		t := gg.InitTensors[i]
		g.Initializers[name] = &t
	}
	for _, gn := range gg.Nodes {
		attrs := make(Attrs, len(gn.AttrK))
		for i, k := range gn.AttrK {
			a := gn.AttrV[i]
			switch a.Kind {
			case 'f':
				attrs[k] = a.F
			case 'i':
				attrs[k] = a.I
			case 'I':
				attrs[k] = a.IS
			case 's':
				attrs[k] = a.S
			}
		}
		g.Nodes = append(g.Nodes, &Node{Op: gn.Op, Name: gn.Name, Inputs: gn.Inputs, Outputs: gn.Outputs, Attrs: attrs})
	}
	return g, nil
}
