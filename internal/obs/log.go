package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log events by severity. The logger drops events below its
// configured level before any allocation happens.
type Level int32

// Levels, lowest to highest severity. LevelOff disables every event.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case LevelOff:
		return "off"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// fieldKind discriminates Field's payload so scalar fields carry no
// interface boxing.
type fieldKind uint8

const (
	kindStr fieldKind = iota
	kindInt
	kindFloat
	kindDur
	kindAny
)

// Field is one structured key/value attached to a log event. Scalars are
// stored unboxed; only the Any constructor allocates an interface.
type Field struct {
	Key  string
	kind fieldKind
	s    string
	i    int64
	f    float64
	a    any
}

// Str returns a string field.
func Str(key, v string) Field { return Field{Key: key, kind: kindStr, s: v} }

// Int returns an int64 field.
func Int(key string, v int64) Field { return Field{Key: key, kind: kindInt, i: v} }

// Float returns a float64 field.
func Float(key string, v float64) Field { return Field{Key: key, kind: kindFloat, f: v} }

// Dur returns a duration field, rendered in Go duration notation.
func Dur(key string, v time.Duration) Field { return Field{Key: key, kind: kindDur, i: int64(v)} }

// Any returns a field holding an arbitrary value. Use the scalar
// constructors where possible; Any boxes.
func Any(key string, v any) Field { return Field{Key: key, kind: kindAny, a: v} }

// Value returns the field's payload as an interface value.
func (f Field) Value() any {
	switch f.kind {
	case kindStr:
		return f.s
	case kindInt:
		return f.i
	case kindFloat:
		return f.f
	case kindDur:
		return time.Duration(f.i)
	}
	return f.a
}

// Event is one finished log record handed to sinks. Sinks must not
// retain the Fields slice past the call.
type Event struct {
	Time   time.Time
	Level  Level
	Msg    string
	Fields []Field
}

// Get returns the first field with the given key.
func (e Event) Get(key string) (Field, bool) {
	for _, f := range e.Fields {
		if f.Key == key {
			return f, true
		}
	}
	return Field{}, false
}

// appendJSON renders the event as a single JSON object without
// reflection: {"ts":...,"level":...,"msg":...,<fields>}.
func (e Event) appendJSON(buf []byte) []byte {
	buf = append(buf, `{"ts":"`...)
	buf = e.Time.UTC().AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, `","level":"`...)
	buf = append(buf, e.Level.String()...)
	buf = append(buf, `","msg":`...)
	buf = strconv.AppendQuote(buf, e.Msg)
	for _, f := range e.Fields {
		buf = append(buf, ',')
		buf = strconv.AppendQuote(buf, f.Key)
		buf = append(buf, ':')
		switch f.kind {
		case kindStr:
			buf = strconv.AppendQuote(buf, f.s)
		case kindInt:
			buf = strconv.AppendInt(buf, f.i, 10)
		case kindFloat:
			buf = strconv.AppendFloat(buf, f.f, 'g', -1, 64)
		case kindDur:
			buf = strconv.AppendQuote(buf, time.Duration(f.i).String())
		default:
			buf = strconv.AppendQuote(buf, fmt.Sprint(f.a))
		}
	}
	return append(buf, '}')
}

// Logger is a leveled structured event logger with pluggable sinks. It is
// allocation-light: a dropped event (below level, or no sinks installed)
// costs two atomic loads and nothing else; an emitted event allocates
// only the variadic Fields slice the caller already built.
type Logger struct {
	level     atomic.Int32
	sinkCount atomic.Int32
	mu        sync.Mutex
	sinks     []func(Event)
}

// NewLogger returns a logger that drops events below the given level. It
// has no sinks; events go nowhere until AddSink or SetWriter is called.
func NewLogger(level Level) *Logger {
	l := &Logger{}
	l.level.Store(int32(level))
	return l
}

var defaultLogger = NewLogger(LevelInfo)

// DefaultLogger returns the process-wide logger the EBI stack emits
// structured events through (slow queries, flight-recorder capture
// failures, drift re-encodings, ...).
func DefaultLogger() *Logger { return defaultLogger }

// SetLevel changes the minimum emitted level.
func (l *Logger) SetLevel(level Level) { l.level.Store(int32(level)) }

// Level returns the minimum emitted level.
func (l *Logger) Level() Level { return Level(l.level.Load()) }

// Enabled reports whether an event at the given level would be emitted.
// Callers can use it to skip expensive field construction.
func (l *Logger) Enabled(level Level) bool {
	return level >= Level(l.level.Load()) && level < LevelOff && l.sinkCount.Load() > 0
}

// AddSink installs a function called synchronously with every emitted
// event. Sinks must be fast and must not retain the event's Fields.
func (l *Logger) AddSink(fn func(Event)) {
	l.mu.Lock()
	l.sinks = append(l.sinks, fn)
	l.sinkCount.Store(int32(len(l.sinks)))
	l.mu.Unlock()
}

// ResetSinks removes every installed sink.
func (l *Logger) ResetSinks() {
	l.mu.Lock()
	l.sinks = nil
	l.sinkCount.Store(0)
	l.mu.Unlock()
}

// SetWriter installs a sink rendering each event as one JSON line to w.
// Writes are serialized; the render buffer is pooled.
func (l *Logger) SetWriter(w io.Writer) {
	var mu sync.Mutex
	l.AddSink(func(e Event) {
		bp := logBufPool.Get().(*[]byte)
		buf := append((*bp)[:0], 0)[:0]
		buf = e.appendJSON(buf)
		buf = append(buf, '\n')
		mu.Lock()
		_, _ = w.Write(buf)
		mu.Unlock()
		*bp = buf
		logBufPool.Put(bp)
	})
}

var logBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// Log emits one event at the given level.
func (l *Logger) Log(level Level, msg string, fields ...Field) {
	if !l.Enabled(level) {
		return
	}
	e := Event{Time: time.Now(), Level: level, Msg: msg, Fields: fields}
	l.mu.Lock()
	sinks := l.sinks
	l.mu.Unlock()
	for _, s := range sinks {
		s(e)
	}
}

// Debug emits a LevelDebug event.
func (l *Logger) Debug(msg string, fields ...Field) { l.Log(LevelDebug, msg, fields...) }

// Info emits a LevelInfo event.
func (l *Logger) Info(msg string, fields ...Field) { l.Log(LevelInfo, msg, fields...) }

// Warn emits a LevelWarn event.
func (l *Logger) Warn(msg string, fields ...Field) { l.Log(LevelWarn, msg, fields...) }

// Error emits a LevelError event.
func (l *Logger) Error(msg string, fields ...Field) { l.Log(LevelError, msg, fields...) }
