package forecast

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"time"
)

// Context is what a model sees when asked for a one-step-ahead forecast:
// the recent history and the timestamp being predicted. Event carries the
// holiday/event flag for models that include event features — the
// distinction paper §4.2's dynamic switching case study turns on.
type Context struct {
	History []float64
	Time    time.Time
	Event   bool
	// PrevEvent is the event flag of the previous step; event-aware
	// models use it to distinguish event onset (where plain AR models
	// fail hardest) from mid-event steps whose lags already reflect the
	// elevated demand.
	PrevEvent bool
	// HistoryEvents, when non-nil, carries the event flag for every
	// history point (same length as History). Multi-step-horizon models
	// need it to know whether their reference observations were taken
	// during an event.
	HistoryEvents []bool
}

// eventAt reports the event flag of history index i, falling back to
// PrevEvent for the final point when flags were not supplied.
func (c *Context) eventAt(i int) bool {
	if c.HistoryEvents != nil && i >= 0 && i < len(c.HistoryEvents) {
		return c.HistoryEvents[i]
	}
	return i == len(c.History)-1 && c.PrevEvent
}

// Model is a one-step-ahead forecaster. Implementations are serializable
// with Encode/Decode so Gallery can store them as opaque blobs.
type Model interface {
	// Name identifies the model class.
	Name() string
	// Train fits the model on a historical series.
	Train(data Series) error
	// Forecast predicts the next value given recent context.
	Forecast(ctx Context) float64
}

// ErrNeedData reports a training set too small for the model.
var ErrNeedData = errors.New("forecast: not enough training data")

// --- heuristic: mean of last K observations ---

// Heuristic is the paper's stable fallback: "a heuristic model which uses
// the mean value of last 5 minutes as the forecasts" (§3.7).
type Heuristic struct {
	K int
}

// Name implements Model.
func (h *Heuristic) Name() string { return fmt.Sprintf("heuristic_mean_%d", h.K) }

// Train is a no-op: the heuristic has no parameters.
func (h *Heuristic) Train(Series) error {
	if h.K <= 0 {
		h.K = 5
	}
	return nil
}

// Forecast returns the mean of the last K observations.
func (h *Heuristic) Forecast(ctx Context) float64 {
	k := h.K
	if k <= 0 {
		k = 5
	}
	n := len(ctx.History)
	if n == 0 {
		return 0
	}
	if k > n {
		k = n
	}
	var sum float64
	for _, v := range ctx.History[n-k:] {
		sum += v
	}
	return sum / float64(k)
}

// --- exponential smoothing ---

// EWMA forecasts with exponentially weighted history.
type EWMA struct {
	Alpha float64
}

// Name implements Model.
func (e *EWMA) Name() string { return "ewma" }

// Train clamps alpha into (0, 1].
func (e *EWMA) Train(Series) error {
	if e.Alpha <= 0 || e.Alpha > 1 {
		e.Alpha = 0.3
	}
	return nil
}

// Forecast folds the history through the smoother.
func (e *EWMA) Forecast(ctx Context) float64 {
	if len(ctx.History) == 0 {
		return 0
	}
	alpha := e.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	s := ctx.History[0]
	for _, v := range ctx.History[1:] {
		s = alpha*v + (1-alpha)*s
	}
	return s
}

// --- seasonal naive ---

// SeasonalNaive predicts the value one season ago.
type SeasonalNaive struct {
	Period int
}

// Name implements Model.
func (s *SeasonalNaive) Name() string { return fmt.Sprintf("seasonal_naive_%d", s.Period) }

// Train validates the period.
func (s *SeasonalNaive) Train(Series) error {
	if s.Period <= 0 {
		return fmt.Errorf("forecast: seasonal naive needs a positive period")
	}
	return nil
}

// Forecast returns history[n-Period], falling back to the last value.
func (s *SeasonalNaive) Forecast(ctx Context) float64 {
	n := len(ctx.History)
	if n == 0 {
		return 0
	}
	if s.Period > 0 && n >= s.Period {
		return ctx.History[n-s.Period]
	}
	return ctx.History[n-1]
}

// --- autoregressive linear regression ---

// LinearAR is a least-squares autoregressive model with time-of-day and
// day-of-week harmonics and, optionally, an event indicator feature. With
// UseEventFeature it is the "model that includes holiday/event features"
// of paper §4.2; without, the plain counterpart.
type LinearAR struct {
	Lags            int
	UseEventFeature bool
	// Horizon is how many steps ahead the model predicts (default 1).
	// At horizon H the lag features are y[t-H] ... y[t-H-Lags+1]: the
	// marketplace-planning setting where recent observations are not yet
	// available and scheduled events must be anticipated from the
	// calendar rather than adapted to from fresh data.
	Horizon int
	// Theta holds the learned coefficients; non-empty means trained.
	// Exported so the model survives gob serialization through Gallery.
	Theta []float64
}

// Name implements Model.
func (m *LinearAR) Name() string {
	name := fmt.Sprintf("linear_ar%d", m.Lags)
	if m.horizon() > 1 {
		name = fmt.Sprintf("%s_h%d", name, m.horizon())
	}
	if m.UseEventFeature {
		name += "_event"
	}
	return name
}

func (m *LinearAR) horizon() int {
	if m.Horizon <= 0 {
		return 1
	}
	return m.Horizon
}

// span is the oldest lag offset the feature row reaches back to.
func (m *LinearAR) span() int { return m.horizon() + m.Lags - 1 }

// features builds the regression row for predicting index i of values,
// appending into dst (pass nil for a fresh row; Forecast passes a stack
// buffer). It reads only values[i-h-Lags+1 .. i-h]. refEvent is the event
// flag of the reference observation values[i-h].
func (m *LinearAR) features(dst []float64, values []float64, t time.Time, event, refEvent bool, i int) []float64 {
	row := dst[:0]
	if cap(row) < m.Lags+8 {
		row = make([]float64, 0, m.Lags+8)
	}
	row = append(row, 1)
	h := m.horizon()
	for l := 0; l < m.Lags; l++ {
		row = append(row, values[i-h-l])
	}
	hour := float64(t.Hour())
	dow := float64(t.Weekday())
	row = append(row,
		math.Sin(2*math.Pi*hour/24), math.Cos(2*math.Pi*hour/24),
		math.Sin(2*math.Pi*dow/7), math.Cos(2*math.Pi*dow/7),
	)
	if m.UseEventFeature {
		// Three regimes, keyed on whether the *reference* observation
		// (the freshest lag the horizon allows) was itself in an event:
		// predicting into an event from calm data needs a scale-up,
		// event-to-event needs none, and calm-from-event needs a
		// scale-down. The signal is proportional to the recent level,
		// so interact with the reference observation.
		ref := values[i-h]
		up, steady, down := 0.0, 0.0, 0.0
		switch {
		case event && !refEvent:
			up = ref
		case event && refEvent:
			steady = ref
		case !event && refEvent:
			down = ref
		}
		row = append(row, up, steady, down)
	}
	return row
}

// Train solves the regularized normal equations by Gaussian elimination.
func (m *LinearAR) Train(data Series) error {
	if m.Lags <= 0 {
		m.Lags = 6
	}
	values := data.Values()
	n := len(values)
	if n <= m.span()+8 {
		return fmt.Errorf("%w: %d points for lag-%d horizon-%d AR", ErrNeedData, n, m.Lags, m.horizon())
	}
	var rows [][]float64
	var ys []float64
	for i := m.span(); i < n; i++ {
		rows = append(rows, m.features(nil, values, data[i].T, data[i].Event, data[i-m.horizon()].Event, i))
		ys = append(ys, values[i])
	}
	theta, err := solveLeastSquares(rows, ys, 1e-6)
	if err != nil {
		return err
	}
	m.Theta = theta
	return nil
}

// maxStackRow sizes Forecast's on-stack feature row: learners with up to
// maxStackRow-8 lags predict without allocating.
const maxStackRow = 64

// Forecast applies the learned coefficients to the current context. The
// prediction target sits Horizon steps past the end of History.
func (m *LinearAR) Forecast(ctx Context) float64 {
	n := len(ctx.History)
	if len(m.Theta) == 0 || n < m.span() {
		// Degenerate fallback: last value (random-walk forecast).
		if n == 0 {
			return 0
		}
		return ctx.History[n-1]
	}
	// The target index n-1+h lies past History, but features only reads
	// indices ≤ i-h = n-1, so History serves as the value array directly;
	// the reference observation is its tail.
	var buf [maxStackRow]float64
	row := m.features(buf[:0], ctx.History, ctx.Time, ctx.Event, ctx.eventAt(n-1), n-1+m.horizon())
	var v float64
	for j, x := range row {
		v += m.Theta[j] * x
	}
	if v < 0 {
		v = 0
	}
	return v
}

// solveLeastSquares returns argmin ||X theta - y||^2 + ridge ||theta||^2
// via the normal equations and Gaussian elimination with partial pivoting.
func solveLeastSquares(X [][]float64, y []float64, ridge float64) ([]float64, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("%w: empty design matrix", ErrNeedData)
	}
	p := len(X[0])
	// A = X'X + ridge I (p x p), b = X'y.
	A := make([][]float64, p)
	for i := range A {
		A[i] = make([]float64, p+1)
	}
	for _, row := range X {
		if len(row) != p {
			return nil, fmt.Errorf("forecast: ragged design matrix")
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			var s float64
			for r := range X {
				s += X[r][i] * X[r][j]
			}
			if i == j {
				s += ridge
			}
			A[i][j] = s
		}
		var s float64
		for r := range X {
			s += X[r][i] * y[r]
		}
		A[i][p] = s
	}
	// Gaussian elimination with partial pivoting on the augmented matrix.
	for col := 0; col < p; col++ {
		pivot := col
		for r := col + 1; r < p; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(A[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("forecast: singular normal equations at column %d", col)
		}
		A[col], A[pivot] = A[pivot], A[col]
		for r := col + 1; r < p; r++ {
			f := A[r][col] / A[col][col]
			for c := col; c <= p; c++ {
				A[r][c] -= f * A[col][c]
			}
		}
	}
	theta := make([]float64, p)
	for i := p - 1; i >= 0; i-- {
		s := A[i][p]
		for j := i + 1; j < p; j++ {
			s -= A[i][j] * theta[j]
		}
		theta[i] = s / A[i][i]
	}
	return theta, nil
}

// --- serialization ---

// blobEnvelope frames a serialized model with its concrete type.
type blobEnvelope struct {
	Kind string
	Data []byte
}

func init() {
	gob.Register(&Heuristic{})
	gob.Register(&EWMA{})
	gob.Register(&SeasonalNaive{})
	gob.Register(&LinearAR{})
	gob.Register(&GBStumps{})
}

// Encode serializes a model to the opaque blob form Gallery stores. The
// registry never interprets these bytes (model neutrality, paper §3.3.2).
func Encode(m Model) ([]byte, error) {
	var inner bytes.Buffer
	if err := gob.NewEncoder(&inner).Encode(m); err != nil {
		return nil, fmt.Errorf("forecast: encode %s: %w", m.Name(), err)
	}
	var out bytes.Buffer
	env := blobEnvelope{Kind: fmt.Sprintf("%T", m), Data: inner.Bytes()}
	if err := gob.NewEncoder(&out).Encode(env); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Decode deserializes a model blob produced by Encode, resolving the
// concrete type through DefaultLoader (see loader.go).
func Decode(blob []byte) (Model, error) {
	return DefaultLoader.Load(blob)
}
