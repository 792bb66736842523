// Package obs is a structural stub of the real internal/obs: Tracer.Start
// returns a Span that must be Ended.
package obs

type Tracer struct{ spans int }

type Span struct {
	tr   *Tracer
	Rows int64
}

func (t *Tracer) Start(cat, name string) *Span {
	if t == nil {
		return nil
	}
	t.spans++
	return &Span{tr: t}
}

func (s *Span) End() {
	if s != nil {
		s.tr = nil
	}
}

func (s *Span) SetRows(n int64) *Span {
	if s != nil {
		s.Rows = n
	}
	return s
}

func (s *Span) Attr(key string, v int64) *Span { return s }
