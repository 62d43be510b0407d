package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"press/server"
	"press/tracing"
)

// benchNode is the span node index of the benchmark's own spans; no
// cluster node uses it.
const benchNode = server.MaxNodes

// spanLog keeps the benchmark's own spans in memory, in the program's
// span record format, until the run writes them out.
type spanLog struct {
	recs []tracing.SpanRecord
	seq  uint64
}

func (l *spanLog) id() uint64 {
	l.seq++
	return l.seq<<8 | benchNode
}

// newTrace returns the identifiers of a new trace's root span without
// recording it, for a root that ends after its children.
func (l *spanLog) newTrace() (tracing.TraceID, tracing.SpanID) {
	id := l.id()
	return tracing.TraceID(id), tracing.SpanID(id)
}

func (l *spanLog) add(tr tracing.TraceID, id, parent tracing.SpanID, name string, start, end int64, attrs ...tracing.Attr) {
	l.recs = append(l.recs, tracing.SpanRecord{
		Trace: tr, Span: id, Parent: parent, Node: benchNode,
		Name: name, Start: start, Dur: end - start, Attrs: attrs,
	})
}

// root records a span that starts its own trace.
func (l *spanLog) root(name string, start, end int64, attrs ...tracing.Attr) (tracing.TraceID, tracing.SpanID) {
	tr, id := l.newTrace()
	l.add(tr, id, 0, name, start, end, attrs...)
	return tr, id
}

// child records a span under parent in trace tr.
func (l *spanLog) child(tr tracing.TraceID, parent tracing.SpanID, name string, start, end int64, attrs ...tracing.Attr) tracing.SpanID {
	id := tracing.SpanID(l.id())
	l.add(tr, id, parent, name, start, end, attrs...)
	return id
}

// requests records one trace per client request: client-request runs
// from due to done, client-wait from due to sent (the time a due
// request waited for a free connection), client-http from sent to done.
func (l *spanLog) requests(phase string, samples []sample) {
	for _, s := range samples {
		ok := int64(0)
		if s.ok {
			ok = 1
		}
		tr, root := l.root("client-request", s.due, s.done, str("phase", phase),
			tracing.Attr{Key: "file", Val: int64(s.file)},
			tracing.Attr{Key: "entry", Val: int64(s.node)},
			tracing.Attr{Key: "ok", Val: ok})
		if s.sent > s.due {
			l.child(tr, root, "client-wait", s.due, s.sent)
		}
		l.child(tr, root, "client-http", s.sent, s.done)
	}
}

func str(k, v string) tracing.Attr { return tracing.Attr{Key: k, Str: v, IsStr: true} }

// writeChrome writes span records as Chrome trace-event JSON, the
// format press-trace reads.
func writeChrome(path string, recs []tracing.SpanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := tracing.WriteChrome(w, recs); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
