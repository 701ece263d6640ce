//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
)

// wire is a load-generating client: one keep-alive connection on which
// one goroutine writes a request and reads its answer. net/http's client
// hands every request through two more goroutines of its own, and where
// those run decides a good part of a 0.05 ms round trip; the timed
// loops use this instead, so that what varies is the daemon.
type wire struct {
	conn net.Conn
	r    *bufio.Reader
	head string // request line and headers up to Content-Length's value
}

// dial opens a connection to the daemon for POSTs to path.
func dial(d *daemon, path string) (*wire, error) {
	host := strings.TrimPrefix(d.base, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return &wire{
		conn: conn,
		r:    bufio.NewReader(conn),
		head: "POST " + path + " HTTP/1.1\r\nHost: " + host + "\r\nContent-Type: application/json\r\nContent-Length: ",
	}, nil
}

// post sends one JSON body and reads the whole answer. A 503 is errShed;
// any other status but 200 is an error.
func (w *wire) post(body []byte) error {
	req := append(append([]byte(w.head), strconv.Itoa(len(body))...), "\r\n\r\n"...)
	if _, err := w.conn.Write(append(req, body...)); err != nil {
		return err
	}
	resp, err := http.ReadResponse(w.r, nil)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return err
	case resp.StatusCode == http.StatusServiceUnavailable:
		return errShed
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("%s", resp.Status)
	}
	return nil
}

func (w *wire) close() { w.conn.Close() }
