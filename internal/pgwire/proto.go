// Package pgwire is the Postgres-wire-protocol front end over the raven
// serving API: enough of the v3 protocol (startup + trust auth, simple
// query, extended query Parse/Bind/Describe/Execute/Sync, text-format
// results, CancelRequest) that psql, BI tools and the pg driver
// ecosystem can run SELECT/PREDICT/INSERT/DDL directly against the
// engine — the paper's pitch that in-database inference makes PREDICT
// reachable from every existing SQL tool, made literal.
//
// The front end adds no second options surface: every entry resolves
// its tenant/DOP/timeout/no_cache through the same
// internal/server/reqopt layer stack as HTTP (pg startup params are the
// ctx layer: database/user map onto the tenant scheduler, the "options"
// parameter carries -c raven.* knobs), goes through the same admission
// path, shares the HTTP server's prepared-statement registry, and maps
// engine errors through the same table (429 ⇔ SQLSTATE 53300, draining
// ⇔ 57P01, timeouts ⇔ 57014, parse errors ⇔ 42601).
//
// Supported subset and deliberate limits: text format only (binary
// Bind/result formats are refused with 0A000), no SSL/GSS (the
// negotiation is answered with 'N'), trust auth, no transactions
// (BEGIN/COMMIT/SET are acknowledged as no-ops so tools' session
// scripts run), Execute row limits are ignored (the whole result
// streams, then CommandComplete — document fetchSize oddities away).
package pgwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"raven/internal/types"
)

// Protocol version / special startup codes.
const (
	protoVersion3 = 196608 // 3.0
	sslRequest    = 80877103
	gssEncRequest = 80877104
	cancelRequest = 80877102
)

// Backend (server→client) message types.
const (
	msgAuth             = 'R'
	msgParameterStatus  = 'S'
	msgBackendKeyData   = 'K'
	msgReadyForQuery    = 'Z'
	msgRowDescription   = 'T'
	msgDataRow          = 'D'
	msgCommandComplete  = 'C'
	msgErrorResponse    = 'E'
	msgEmptyQueryResp   = 'I'
	msgParseComplete    = '1'
	msgBindComplete     = '2'
	msgCloseComplete    = '3'
	msgParamDescription = 't'
	msgNoData           = 'n'
	msgNoticeResponse   = 'N'
	msgPortalSuspended  = 's'
)

// Frontend (client→server) message types.
const (
	msgQuery     = 'Q'
	msgParse     = 'P'
	msgBind      = 'B'
	msgDescribe  = 'D'
	msgExecute   = 'E'
	msgClose     = 'C'
	msgSync      = 'S'
	msgFlush     = 'H'
	msgTerminate = 'X'
)

// Postgres type OIDs for the engine's four data types.
const (
	oidBool   = 16
	oidInt8   = 20
	oidText   = 25
	oidFloat8 = 701
)

// oidFor maps an engine column type to its wire OID (text format).
func oidFor(t types.DataType) (oid uint32, typlen int16) {
	switch t {
	case types.Int:
		return oidInt8, 8
	case types.Float:
		return oidFloat8, 8
	case types.Bool:
		return oidBool, 1
	default:
		return oidText, -1
	}
}

// maxMessageLen bounds one frontend message body. Wire input is
// untrusted; a hostile length prefix must not allocate gigabytes.
const maxMessageLen = 16 << 20

var errMessageTooLong = errors.New("pgwire: frontend message exceeds 16MiB")

// writeBuf accumulates one backend message: type byte, length patched
// at finish, big-endian payload. One buffer is reused per connection.
type writeBuf struct {
	b []byte
}

func (w *writeBuf) start(typ byte) {
	w.b = append(w.b[:0], typ, 0, 0, 0, 0)
}

func (w *writeBuf) byte(v byte)     { w.b = append(w.b, v) }
func (w *writeBuf) int16(v int)     { w.b = binary.BigEndian.AppendUint16(w.b, uint16(v)) }
func (w *writeBuf) int32(v int)     { w.b = binary.BigEndian.AppendUint32(w.b, uint32(v)) }
func (w *writeBuf) uint32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *writeBuf) cstring(s string) {
	w.b = append(w.b, s...)
	w.b = append(w.b, 0)
}
func (w *writeBuf) bytes(p []byte) { w.b = append(w.b, p...) }

// finish patches the length (which includes itself but not the type
// byte) and writes the message to out.
func (w *writeBuf) finish(out *bufio.Writer) error {
	binary.BigEndian.PutUint32(w.b[1:5], uint32(len(w.b)-1))
	_, err := out.Write(w.b)
	return err
}

// readMessage reads one typed frontend message.
func readMessage(r *bufio.Reader) (typ byte, payload []byte, err error) {
	typ, err = r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:])) - 4
	if n < 0 || n > maxMessageLen {
		return 0, nil, errMessageTooLong
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// readStartup reads the untyped startup packet: length then body.
func readStartup(r *bufio.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:])) - 4
	if n < 4 || n > maxMessageLen {
		return nil, fmt.Errorf("pgwire: bad startup packet length %d", n+4)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// msgReader walks one frontend message payload.
type msgReader struct {
	b []byte
}

var errShortMessage = errors.New("pgwire: truncated frontend message")

func (m *msgReader) byte() (byte, error) {
	if len(m.b) < 1 {
		return 0, errShortMessage
	}
	v := m.b[0]
	m.b = m.b[1:]
	return v, nil
}

func (m *msgReader) int16() (int, error) {
	if len(m.b) < 2 {
		return 0, errShortMessage
	}
	v := int(int16(binary.BigEndian.Uint16(m.b)))
	m.b = m.b[2:]
	return v, nil
}

func (m *msgReader) int32() (int, error) {
	if len(m.b) < 4 {
		return 0, errShortMessage
	}
	v := int(int32(binary.BigEndian.Uint32(m.b)))
	m.b = m.b[4:]
	return v, nil
}

func (m *msgReader) uint32() (uint32, error) {
	if len(m.b) < 4 {
		return 0, errShortMessage
	}
	v := binary.BigEndian.Uint32(m.b)
	m.b = m.b[4:]
	return v, nil
}

func (m *msgReader) cstring() (string, error) {
	for i, c := range m.b {
		if c == 0 {
			s := string(m.b[:i])
			m.b = m.b[i+1:]
			return s, nil
		}
	}
	return "", errShortMessage
}

func (m *msgReader) bytes(n int) ([]byte, error) {
	if n < 0 || len(m.b) < n {
		return nil, errShortMessage
	}
	v := m.b[:n]
	m.b = m.b[n:]
	return v, nil
}

// parseStartupParams splits a startup body (after the version word)
// into its key\0value\0 pairs.
func parseStartupParams(body []byte) (map[string]string, error) {
	m := &msgReader{b: body}
	params := make(map[string]string)
	for len(m.b) > 0 {
		k, err := m.cstring()
		if err != nil {
			return nil, err
		}
		if k == "" {
			break // terminator
		}
		v, err := m.cstring()
		if err != nil {
			return nil, err
		}
		params[k] = v
	}
	return params, nil
}
