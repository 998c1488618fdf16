package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// serveHTTP serves h on a loopback port and returns its base URL and a
// stop function that returns once the server has exited.
func serveHTTP(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
		close(done)
	}()
	stop := func() {
		srv.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// newClient returns an HTTP client limited to conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one JSON-RPC body and returns the response body. A
// transport error or a non-200 status is an error.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %.200s", url, resp.StatusCode, raw)
	}
	return raw, nil
}

// rpcEnvelope is a JSON-RPC response.
type rpcEnvelope struct {
	Result json.RawMessage `json:"result"`
	Error  *struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// decodeResult decodes a JSON-RPC response's result into out; a
// JSON-RPC error object is an error.
func decodeResult(raw []byte, out any) error {
	var env rpcEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if env.Error != nil {
		return fmt.Errorf("rpc error %d: %s", env.Error.Code, env.Error.Message)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(env.Result, out)
}

// request renders one JSON-RPC request body.
func request(id int, method string, params ...any) []byte {
	if params == nil {
		params = []any{}
	}
	p, _ := json.Marshal(params) // params are strings, numbers and bools
	return []byte(fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":%q,"params":%s}`, id, method, p))
}

func hexQ(n uint64) string { return fmt.Sprintf("0x%x", n) }
