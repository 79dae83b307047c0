package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// pgConn is a minimal Postgres v3 frontend: trust-auth startup, the
// simple query protocol, and the extended protocol with named
// statements and text parameters. It is the benchmark's own client;
// results are folded straight into a fingerprint.
type pgConn struct {
	nc       net.Conn
	br       *bufio.Reader
	out      []byte
	msgStart int // offset in out of the message being built

	bytesIn int64
	ttfb    time.Duration
}

func dialPG(addr string) (*pgConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	p := &pgConn{nc: nc}
	p.br = bufio.NewReaderSize(countingReader{nc, &p.bytesIn}, 64<<10)
	if err := p.startup(); err != nil {
		nc.Close()
		return nil, err
	}
	return p, nil
}

func (p *pgConn) close() {
	p.begin('X')
	p.finish()
	p.nc.Write(p.out)
	p.nc.Close()
}

func (p *pgConn) startup() error {
	b := make([]byte, 4, 64)
	b = binary.BigEndian.AppendUint32(b, 196608) // protocol 3.0
	for _, kv := range [][2]string{{"user", "bench"}, {"database", "raven"}} {
		b = append(append(b, kv[0]...), 0)
		b = append(append(b, kv[1]...), 0)
	}
	b = append(b, 0)
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)))
	p.nc.SetDeadline(time.Now().Add(opTimeout))
	if _, err := p.nc.Write(b); err != nil {
		return err
	}
	for {
		typ, payload, err := p.read()
		if err != nil {
			return err
		}
		switch typ {
		case 'E':
			return pgError(payload)
		case 'Z':
			return nil
		}
	}
}

// begin starts a frontend message in the output buffer; finish patches
// its length (which covers itself and the payload, not the type byte).
// Several messages accumulate until flush.
func (p *pgConn) begin(typ byte) {
	p.msgStart = len(p.out)
	p.out = append(p.out, typ, 0, 0, 0, 0)
}

func (p *pgConn) finish() {
	binary.BigEndian.PutUint32(p.out[p.msgStart+1:], uint32(len(p.out)-p.msgStart-1))
}

func (p *pgConn) cstring(s string) { p.out = append(append(p.out, s...), 0) }
func (p *pgConn) int16(v int)      { p.out = binary.BigEndian.AppendUint16(p.out, uint16(v)) }
func (p *pgConn) int32(v int)      { p.out = binary.BigEndian.AppendUint32(p.out, uint32(v)) }

func (p *pgConn) flush() (time.Time, error) {
	start := time.Now()
	p.nc.SetDeadline(start.Add(opTimeout))
	_, err := p.nc.Write(p.out)
	p.out = p.out[:0]
	return start, err
}

func (p *pgConn) read() (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(p.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[1:])) - 4
	if n < 0 || n > 64<<20 {
		return 0, nil, fmt.Errorf("pg: bad message length %d", n)
	}
	// Peek avoids a copy for messages that fit the buffer; the slice is
	// consumed before the next read.
	if n <= p.br.Size() {
		b, err := p.br.Peek(n)
		if err != nil {
			return 0, nil, err
		}
		p.br.Discard(n)
		return hdr[0], b, nil
	}
	b := make([]byte, n)
	_, err := io.ReadFull(p.br, b)
	return hdr[0], b, err
}

// pgError renders an ErrorResponse payload.
func pgError(payload []byte) error {
	var code, msg string
	for len(payload) > 1 {
		f := payload[0]
		payload = payload[1:]
		i := 0
		for i < len(payload) && payload[i] != 0 {
			i++
		}
		switch f {
		case 'C':
			code = string(payload[:i])
		case 'M':
			msg = string(payload[:i])
		}
		if i >= len(payload) {
			break
		}
		payload = payload[i+1:]
	}
	return fmt.Errorf("pg: %s: %s", code, msg)
}

// collect reads backend messages until ReadyForQuery, folding DataRows
// into fp (which may be nil for statements that return nothing).
func (p *pgConn) collect(start time.Time, fp *fingerprint) error {
	if _, err := p.br.Peek(1); err != nil {
		return err
	}
	p.ttfb = time.Since(start)
	var failed error
	for {
		typ, payload, err := p.read()
		if err != nil {
			return err
		}
		switch typ {
		case 'D':
			if fp == nil || failed != nil {
				continue
			}
			if err := foldDataRow(payload, fp); err != nil {
				failed = err
			}
		case 'E':
			failed = pgError(payload)
		case 'Z':
			return failed
		}
	}
}

func foldDataRow(b []byte, fp *fingerprint) error {
	if len(b) < 2 {
		return fmt.Errorf("pg: short DataRow")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	for col := 0; col < n; col++ {
		if len(b) < 4 {
			return fmt.Errorf("pg: short DataRow")
		}
		ln := int(int32(binary.BigEndian.Uint32(b)))
		b = b[4:]
		if ln < 0 || ln > len(b) {
			return fmt.Errorf("pg: NULL or truncated field in DataRow")
		}
		v, err := strconv.ParseFloat(string(b[:ln]), 64)
		if err != nil {
			return fmt.Errorf("pg: non-numeric field %q", b[:ln])
		}
		fp.add(col, v)
		b = b[ln:]
	}
	fp.endRow()
	return nil
}

// simple runs one script through the simple query protocol.
func (p *pgConn) simple(script string, fp *fingerprint) error {
	p.begin('Q')
	p.cstring(script)
	p.finish()
	start, err := p.flush()
	if err != nil {
		return err
	}
	return p.collect(start, fp)
}

// parse prepares a named statement (Parse + Sync).
func (p *pgConn) parse(name, query string) error {
	p.begin('P')
	p.cstring(name)
	p.cstring(query)
	p.int16(0)
	p.finish()
	p.begin('S')
	p.finish()
	start, err := p.flush()
	if err != nil {
		return err
	}
	return p.collect(start, nil)
}

// execute runs a named statement: Bind with text parameters, Execute,
// Sync — one round trip.
func (p *pgConn) execute(name string, vals [2]int64, nparams int, fp *fingerprint) error {
	p.begin('B')
	p.cstring("")
	p.cstring(name)
	p.int16(0)
	p.int16(nparams)
	var num [20]byte
	for i := 0; i < nparams; i++ {
		s := strconv.AppendInt(num[:0], vals[i], 10)
		p.int32(len(s))
		p.out = append(p.out, s...)
	}
	p.int16(0)
	p.finish()
	p.begin('E')
	p.cstring("")
	p.int32(0)
	p.finish()
	p.begin('S')
	p.finish()
	start, err := p.flush()
	if err != nil {
		return err
	}
	return p.collect(start, fp)
}
