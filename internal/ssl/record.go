package ssl

import (
	"encoding/binary"
	"fmt"

	"nestedenclave/internal/isa"
)

// Client-side record API: the client is the attacker's vantage point in the
// Heartbleed reproduction, so it runs natively (no enclave memory needed).

// Send seals application data.
func (c *Client) Send(data []byte) ([]byte, error) {
	if c.suite == nil {
		return nil, fmt.Errorf("ssl: send before handshake")
	}
	return c.seal(recAppData, data)
}

// Recv opens a record from the server and returns its type and plaintext.
func (c *Client) Recv(rec []byte) (uint8, []byte, error) {
	if c.suite == nil {
		return 0, nil, fmt.Errorf("ssl: recv before handshake")
	}
	return c.open(rec)
}

// Heartbeat builds a heartbeat request claiming claimedLen payload bytes
// while actually carrying payload. A benign client passes
// claimedLen == len(payload); the Heartbleed attacker claims more.
func (c *Client) Heartbeat(payload []byte, claimedLen int) ([]byte, error) {
	if c.suite == nil {
		return nil, fmt.Errorf("ssl: heartbeat before handshake")
	}
	body := make([]byte, 3+len(payload)+16)
	body[0] = hbRequest
	binary.BigEndian.PutUint16(body[1:3], uint16(claimedLen))
	copy(body[3:], payload)
	// (trailing bytes are the RFC 6520 random padding)
	copy(body[3+len(payload):], randomBytes(16))
	return c.seal(RecHeartbeat, body)
}

// OpenHeartbeatResponse extracts the echoed payload from a heartbeat
// response record.
func (c *Client) OpenHeartbeatResponse(rec []byte) ([]byte, error) {
	typ, pt, err := c.Recv(rec)
	if err != nil {
		return nil, err
	}
	if typ != RecHeartbeat || len(pt) < 3 || pt[0] != hbResponse {
		return nil, fmt.Errorf("ssl: not a heartbeat response")
	}
	n := int(binary.BigEndian.Uint16(pt[1:3]))
	if n > len(pt)-3 {
		n = len(pt) - 3
	}
	return pt[3 : 3+n], nil
}

// Server-side record processing. Every decrypted record is staged into the
// library's enclave heap before interpretation — the detail that makes the
// heartbeat over-read physically meaningful.

// ProcessRecord decrypts one incoming record and dispatches it:
//   - heartbeat requests are answered internally (the vulnerable path);
//   - application data is passed to handler, whose return value is sealed
//     as the response.
//
// The returned slice is the wire response (nil when the record produced
// none).
func (s *Server) ProcessRecord(rec []byte, handler func(req []byte) []byte) ([]byte, error) {
	if s.suite == nil || !s.done {
		return nil, fmt.Errorf("ssl: record before handshake")
	}
	typ, pt, err := s.open(rec)
	if err != nil {
		return nil, err
	}
	// Stage the plaintext into the library's enclave heap (empty records
	// have nothing to stage).
	var buf isa.VAddr
	if len(pt) > 0 {
		buf, err = s.mem.Malloc(len(pt))
		if err != nil {
			return nil, err
		}
		defer func() { _ = s.mem.Free(buf) }()
		if err := s.mem.Write(buf, pt); err != nil {
			return nil, err
		}
	}
	switch typ {
	case RecHeartbeat:
		body, err := s.respondHeartbeat(buf, len(pt))
		if err != nil || body == nil {
			return nil, err
		}
		return s.seal(RecHeartbeat, body)
	case recAppData:
		resp := handler(pt)
		if resp == nil {
			return nil, nil
		}
		return s.seal(recAppData, resp)
	default:
		return nil, fmt.Errorf("ssl: unexpected record type %d", typ)
	}
}
