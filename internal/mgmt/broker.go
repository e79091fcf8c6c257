package mgmt

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// Broker is the per-node management daemon (§3.1): it executes agents
// against the node's local environment. It starts with an empty agent
// registry — agents arrive from the controller on first use. Construct
// with NewBroker.
type Broker struct {
	env Env

	mu       sync.Mutex
	agents   map[string]Spec
	installs int64 // agent installations ("code downloads") served

	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   chan struct{}
	closeOne sync.Once
	wg       sync.WaitGroup
}

// NewBroker returns a broker for env.
func NewBroker(env Env) *Broker {
	return &Broker{
		env:    env,
		agents: make(map[string]Spec),
		conns:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
}

// Installs returns how many agent installations this broker performed —
// the visible trace of download-on-demand dispatch.
func (b *Broker) Installs() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.installs
}

// InstalledAgents returns the names of agents currently installed.
func (b *Broker) InstalledAgents() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.agents))
	for name := range b.agents {
		out = append(out, name)
	}
	return out
}

// Start listens on addr (":0" for ephemeral) and serves in the background,
// returning the bound address.
func (b *Broker) Start(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("broker %s: listen: %w", b.env.Node, err)
	}
	b.mu.Lock()
	b.listener = l
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			b.mu.Lock()
			select {
			case <-b.closed:
				b.mu.Unlock()
				_ = conn.Close()
				return
			default:
			}
			b.conns[conn] = struct{}{}
			b.mu.Unlock()
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				defer func() {
					_ = conn.Close()
					b.mu.Lock()
					delete(b.conns, conn)
					b.mu.Unlock()
				}()
				b.serveConn(conn)
			}()
		}
	}()
	return l.Addr().String(), nil
}

// serveConn handles one controller connection's request stream.
func (b *Broker) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		var req request
		data, err := readFrame(br, &req)
		if err != nil {
			return
		}
		resp := b.handle(req, data)
		var out []byte
		if resp.Result != nil {
			out = resp.Result.Data
		}
		if err := writeFrame(bw, resp, out); err != nil {
			return
		}
	}
}

// handle executes one request whose frame carried payload data.
func (b *Broker) handle(req request, data []byte) response {
	if req.Install != nil {
		b.mu.Lock()
		if _, exists := b.agents[req.Install.Name]; !exists {
			b.agents[req.Install.Name] = *req.Install
			b.installs++
		}
		b.mu.Unlock()
		return response{ID: req.ID, OK: true, Result: &Result{Message: "installed " + req.Install.Name}}
	}
	b.mu.Lock()
	spec, ok := b.agents[req.Agent]
	b.mu.Unlock()
	if !ok {
		return response{
			ID:       req.ID,
			OK:       false,
			Error:    fmt.Sprintf("agent %q not installed", req.Agent),
			NeedCode: true,
		}
	}
	var args Args
	if req.Args != nil {
		args = *req.Args
	}
	args.Data = data
	result, err := ExecuteOp(spec.Op, b.env, args)
	if err != nil {
		return response{ID: req.ID, OK: false, Error: err.Error()}
	}
	return response{ID: req.ID, OK: true, Result: &result}
}

// Close stops the broker and joins all goroutines.
func (b *Broker) Close() error {
	var err error
	b.closeOne.Do(func() {
		close(b.closed)
		b.mu.Lock()
		if b.listener != nil {
			err = b.listener.Close()
		}
		for conn := range b.conns {
			_ = conn.Close()
		}
		b.mu.Unlock()
	})
	b.wg.Wait()
	return err
}

// DefaultBrokerTimeout bounds one broker call (send + response) unless
// SetTimeout overrides it. A broker that stops answering — crashed node,
// black-holed network — fails the call instead of wedging the
// controller's management loop.
const DefaultBrokerTimeout = 10 * time.Second

// BrokerClient is the controller's connection to one broker. Construct
// with DialBroker. Calls are serialized per client; after a failed call
// the client redials on the next one.
type BrokerClient struct {
	mu     sync.Mutex
	wire   wireConn
	nextID int64
}

// DialBroker connects to a broker at addr.
func DialBroker(addr string) (*BrokerClient, error) {
	c := &BrokerClient{wire: wireConn{addr: addr, timeout: DefaultBrokerTimeout}}
	if err := c.wire.dial(); err != nil {
		return nil, err
	}
	return c, nil
}

// SetTimeout overrides the per-call deadline (0 disables).
func (c *BrokerClient) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wire.timeout = d
}

// call performs one request/response exchange, shipping data as the
// request payload.
func (c *BrokerClient) call(req request, data []byte) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	req.ID = c.nextID
	var resp response
	out, err := c.wire.exchange(req, data, &resp)
	if err != nil {
		return response{}, err
	}
	if resp.ID != req.ID {
		// The stream is out of step; a fresh connection realigns it.
		_ = c.wire.reset()
		return response{}, fmt.Errorf("mgmt: response id %d for request %d", resp.ID, req.ID)
	}
	if resp.Result != nil {
		resp.Result.Data = out
	}
	return resp, nil
}

// Invoke runs agent with args on the broker. The needCode flag is
// reported so the caller (controller) can install and retry.
func (c *BrokerClient) Invoke(agent string, args Args) (Result, bool, error) {
	resp, err := c.call(request{Agent: agent, Args: &args}, args.Data)
	if err != nil {
		return Result{}, false, err
	}
	if !resp.OK {
		if resp.NeedCode {
			return Result{}, true, fmt.Errorf("mgmt: %s", resp.Error)
		}
		return Result{}, false, fmt.Errorf("mgmt: agent %s: %s", agent, resp.Error)
	}
	if resp.Result == nil {
		return Result{}, false, nil
	}
	return *resp.Result, false, nil
}

// Install ships an agent spec to the broker.
func (c *BrokerClient) Install(spec Spec) error {
	resp, err := c.call(request{Install: &spec}, nil)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("mgmt: installing %s: %s", spec.Name, resp.Error)
	}
	return nil
}

// Close closes the underlying connection; later calls fail.
func (c *BrokerClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wire.close()
}
