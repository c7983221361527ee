package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPNode is an Endpoint implemented over real TCP connections for
// multi-process deployments. Frames are length-prefixed:
//
//	uint32 length | uint16 from | payload
//
// Connections are established lazily per peer and re-dialed with backoff on
// failure. A hello frame (length 2, the sender id) opens every inbound
// connection. Peers never write on a connection they accepted, so each
// outbound connection is read only to notice its peer closing it.
type TCPNode struct {
	id    NodeID
	ln    net.Listener
	peers map[NodeID]string // id -> address

	mu      sync.Mutex
	conns   map[NodeID]*outConn
	inbound map[net.Conn]struct{}
	out     chan Envelope
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
}

// outConn is one outbound connection with its own write lock: frames to the
// same peer serialize (no interleaved frames), while a blocked write to one
// slow peer cannot stall sends to the others.
type outConn struct {
	c       net.Conn
	writeMu sync.Mutex
}

var _ Endpoint = (*TCPNode)(nil)

const maxTCPFrame = 64 << 20

// NewTCPNode starts listening on listenAddr and prepares to dial the given
// peers (id -> host:port).
func NewTCPNode(id NodeID, listenAddr string, peers map[NodeID]string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	n := &TCPNode{
		id:      id,
		ln:      ln,
		peers:   peers,
		conns:   make(map[NodeID]*outConn),
		inbound: make(map[net.Conn]struct{}),
		out:     make(chan Envelope, 1024),
		done:    make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the actual listen address (useful with ":0").
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// ID implements Endpoint.
func (n *TCPNode) ID() NodeID { return n.id }

// Recv implements Endpoint.
func (n *TCPNode) Recv() <-chan Envelope { return n.out }

// Send implements Endpoint. A write error evicts the cached connection and
// the send is retried once over a fresh dial: a peer that restarted would
// otherwise eat one errored write per cached conn before traffic flows
// again. A connection the peer closed is evicted as soon as the close
// arrives (see watch), so the first frame after a peer restart goes over a
// fresh dial. (A write that races the close can still succeed into the OS
// buffer and be lost silently — only retransmission above this layer covers
// that.)
func (n *TCPNode) Send(to NodeID, payload []byte) error {
	frame := make([]byte, 6+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(2+len(payload))) //nolint:gosec // bounded
	binary.BigEndian.PutUint16(frame[4:], uint16(n.id))
	copy(frame[6:], payload)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		oc, err := n.conn(to)
		if err != nil {
			return err
		}
		oc.writeMu.Lock()
		_, err = oc.c.Write(frame)
		oc.writeMu.Unlock()
		if err == nil {
			return nil
		}
		// Evict (unless a fresh conn already replaced it) and retry.
		n.mu.Lock()
		if n.conns[to] == oc {
			delete(n.conns, to)
		}
		n.mu.Unlock()
		_ = oc.c.Close()
		lastErr = err
	}
	return fmt.Errorf("transport: send to %d: %w", to, lastErr)
}

// Close implements Endpoint.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	conns := make([]net.Conn, 0, len(n.conns)+len(n.inbound))
	for _, oc := range n.conns {
		conns = append(conns, oc.c)
	}
	// Accepted connections must be closed too, or their readLoops block on
	// reads from still-open peers and Close deadlocks on wg.Wait.
	for c := range n.inbound {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	_ = n.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	n.wg.Wait()
	close(n.out)
	return nil
}

func (n *TCPNode) conn(to NodeID) (*outConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if oc, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return oc, nil
	}
	addr, ok := n.peers[to]
	n.mu.Unlock()
	if !ok {
		return nil, ErrUnknownPeer
	}
	var c net.Conn
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		c, err = net.DialTimeout("tcp", addr, 2*time.Second)
		if err == nil {
			break
		}
		select {
		case <-n.done:
			return nil, ErrClosed
		case <-time.After(time.Duration(50*(attempt+1)) * time.Millisecond):
		}
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dial %d at %s: %w", to, addr, err)
	}
	// Hello frame announcing who we are.
	hello := make([]byte, 6)
	binary.BigEndian.PutUint32(hello, 2)
	binary.BigEndian.PutUint16(hello[4:], uint16(n.id))
	if _, err := c.Write(hello); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("transport: hello to %d: %w", to, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		_ = c.Close()
		return nil, ErrClosed
	}
	if existing, ok := n.conns[to]; ok {
		_ = c.Close()
		return existing, nil
	}
	oc := &outConn{c: c}
	n.conns[to] = oc
	n.wg.Add(1)
	go n.watch(to, oc)
	return oc, nil
}

// watch reads an outbound connection until the peer closes or resets it,
// then evicts it, unless a fresh connection already replaced it.
func (n *TCPNode) watch(to NodeID, oc *outConn) {
	defer n.wg.Done()
	_, _ = io.Copy(io.Discard, oc.c)
	n.mu.Lock()
	if n.conns[to] == oc {
		delete(n.conns, to)
	}
	n.mu.Unlock()
	_ = oc.c.Close()
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.inbound[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.readLoop(conn)
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	var header [4]byte
	for {
		if _, err := io.ReadFull(conn, header[:]); err != nil {
			return
		}
		length := binary.BigEndian.Uint32(header[:])
		if length < 2 || length > maxTCPFrame {
			return
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		from := NodeID(binary.BigEndian.Uint16(body[:2]))
		payload := body[2:]
		if len(payload) == 0 {
			continue // hello frame
		}
		select {
		case n.out <- Envelope{From: from, To: n.id, Payload: payload}:
		case <-n.done:
			return
		}
	}
}
