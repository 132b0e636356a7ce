// Package httpd is a from-scratch pre-forking web server standing in for
// Apache (§4.2): worker processes share a listening socket, block in
// naccept, parse real HTTP/1.0 request text, stat and open the requested
// file, and stream it back with read+send loops — the kwritev / kreadv /
// select / statx / open / close / naccept / send profile of Table 1's
// SPECWeb row.
package httpd

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/osserver"
)

// Config shapes the server.
type Config struct {
	Port    int
	Workers int
	// LogFile, when non-empty, receives an access-log line per request
	// (adds the fs write path like Apache's access_log).
	LogFile string
}

// DefaultConfig serves on port 80 with 4 pre-forked workers.
func DefaultConfig() Config {
	return Config{Port: 80, Workers: 4, LogFile: "access.log"}
}

// QuitPath is the magic request that shuts a worker down (the trace player
// sends one per worker when the trace is exhausted).
const QuitPath = "/quit"

// Stats is filled per worker.
type Stats struct {
	Served    uint64
	BytesSent uint64
	NotFound  uint64
}

// Worker runs one pre-forked server process body. Every worker listens on
// the same port: the first to arrive binds it, the rest attach (the
// pre-fork inherited-socket model).
func Worker(p *frontend.Proc, cfg Config, st *Stats) {
	os := osserver.For(p)
	lfd, err := os.Listen(cfg.Port)
	if err != nil {
		if lfd, err = os.AttachListener(cfg.Port); err != nil {
			panic(fmt.Sprintf("httpd: listen: %v", err))
		}
	}
	logFD := -1
	if cfg.LogFile != "" {
		if logFD, err = os.Open(cfg.LogFile); err != nil {
			if logFD, err = os.Creat(cfg.LogFile); err != nil {
				panic(err)
			}
		}
	}

	w := &worker{p: p, os: os, st: st, buf: make([]byte, chunkSize), paths: make(map[string]string)}
	for {
		// select + naccept, like Apache's accept loop.
		if _, err := os.Select(lfd); err != nil {
			panic(err)
		}
		cfd, err := os.Naccept(lfd)
		if err != nil {
			panic(err)
		}
		path := w.readRequest(cfd)
		if path == QuitPath {
			os.Send(cfd, bye, 0)
			os.Close(cfd)
			break
		}
		w.serveFile(cfd, path)
		if logFD >= 0 {
			p.Compute(isa.InstrMix{Int: 900, Branch: 150}) // log-line formatting
			w.line = append(append(append(w.line[:0], "GET "...), path...), " 200\n"...)
			os.Write(logFD, w.line, 0, 0)
		}
		os.Close(cfd)
	}
	if logFD >= 0 {
		os.Close(logFD)
	}
}

// chunkSize is how much of a file one read+send moves.
const chunkSize = 4096

// The fixed responses, shared by every worker: Send copies what it sends.
var (
	bye      = []byte("HTTP/1.0 200 OK\r\n\r\nbye")
	notFound = []byte("HTTP/1.0 404 Not Found\r\n\r\n")
)

// headerEnd ends an HTTP request header.
var headerEnd = []byte("\r\n\r\n")

// worker is one server process: its OS thread, its tallies, and the buffers
// it reuses from one request to the next.
type worker struct {
	p  *frontend.Proc
	os *osserver.OSThread
	st *Stats

	req  []byte // the request read so far
	line []byte // the response header, then the access-log line
	buf  []byte // one chunk of the file being sent

	// paths holds every path requested so far, so that a path asked for
	// again is not made again: the file set bounds it.
	paths map[string]string
}

// readRequest receives until the blank line and parses the request path,
// charging user-mode parse work per byte (Apache's request parsing).
func (w *worker) readRequest(cfd int) string {
	w.req = w.req[:0]
	for {
		seg, err := w.os.Recv(cfd, 0)
		if err != nil {
			panic(err)
		}
		if seg == nil {
			return QuitPath // peer vanished; treat as shutdown
		}
		w.req = append(w.req, seg...)
		if bytes.Contains(w.req, headerEnd) {
			break
		}
	}
	req := w.req
	w.p.Compute(isa.InstrMix{Int: 4000 + uint64(40*len(req)), Branch: 800 + uint64(4*len(req)), IntMul: 60})
	line := req
	if i := bytes.Index(line, []byte("\r\n")); i >= 0 {
		line = line[:i]
	}
	method, target := twoFields(line)
	if len(target) == 0 || string(method) != "GET" {
		return QuitPath
	}
	path, ok := w.paths[string(target)]
	if !ok {
		path = string(target)
		w.paths[path] = path
	}
	return path
}

// twoFields returns the first two fields of line, split around white space
// as strings.Fields splits it; a field that is not there is empty.
func twoFields(line []byte) (first, second []byte) {
	line = bytes.TrimLeftFunc(line, unicode.IsSpace)
	i := bytes.IndexFunc(line, unicode.IsSpace)
	if i < 0 {
		return line, nil
	}
	first, line = line[:i], bytes.TrimLeftFunc(line[i:], unicode.IsSpace)
	if i = bytes.IndexFunc(line, unicode.IsSpace); i >= 0 {
		line = line[:i]
	}
	return first, line
}

// serveFile stats, opens and streams the file in read+send chunks.
func (w *worker) serveFile(cfd int, path string) {
	os, st := w.os, w.st
	name := strings.TrimPrefix(path, "/")
	size, err := os.Statx(name)
	if err != nil {
		st.NotFound++
		os.Send(cfd, notFound, 0)
		return
	}
	fd, err := os.Open(name)
	if err != nil {
		st.NotFound++
		os.Send(cfd, notFound, 0)
		return
	}
	w.line = append(w.line[:0], "HTTP/1.0 200 OK\r\nContent-Length: "...)
	w.line = append(strconv.AppendInt(w.line, size, 10), headerEnd...)
	w.p.Compute(isa.InstrMix{Int: 1800, Branch: 300})
	os.Send(cfd, w.line, 0)
	sent := 0
	for int64(sent) < size {
		chunk := chunkSize
		if int64(sent+chunk) > size {
			chunk = int(size) - sent
		}
		n, err := os.Read(fd, w.buf[:chunk], chunk, 0)
		if err != nil || n == 0 {
			break
		}
		os.Send(cfd, w.buf[:n], 0)
		sent += n
	}
	os.Close(fd)
	st.Served++
	st.BytesSent += uint64(sent)
}
