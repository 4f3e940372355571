package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// SampleVariance returns the unbiased (n−1, Bessel-corrected) sample
// variance of xs, the right estimator when xs is a sample from a larger
// population (as the per-repetition results are).
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// SampleStdDev returns the sample (n−1) standard deviation of xs.
func SampleStdDev(xs []float64) float64 { return math.Sqrt(SampleVariance(xs)) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// StandardError returns the standard error of the mean of xs, using the
// sample (n−1) standard deviation: xs is a sample of runs, not the whole
// population, so the population form would bias the error low.
func StandardError(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return SampleStdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Summary collects the descriptive statistics reported in the paper's
// tables for one population of per-flow results.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	StdDev float64
	P10    float64
	P90    float64
	Min    float64
	Max    float64
}

// quantileSorted is Quantile over an already-sorted slice, so one sort can
// serve several quantiles.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + frac*(s[i+1]-s[i])
}

// Summarize computes a Summary of xs, leaving xs as it is: it runs
// SummarizeInPlace on a copy.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	return SummarizeInPlace(s)
}

// SummarizeInPlace computes a Summary of xs and leaves xs sorted. The mean
// and standard deviation are taken in xs's original order, so every bit of
// the result equals Summarize's; then xs is sorted once and every order
// statistic — median, P10, P90, min, max — reads from it. The runner
// summarizes every repetition on its own scratch slices this way, with no
// copy.
func SummarizeInPlace(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	out := Summary{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs)}
	sort.Float64s(xs)
	out.Median = quantileSorted(xs, 0.5)
	out.P10 = quantileSorted(xs, 0.10)
	out.P90 = quantileSorted(xs, 0.90)
	out.Min, out.Max = xs[0], xs[len(xs)-1]
	return out
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g median=%.4g sd=%.4g [%.4g, %.4g]",
		s.N, s.Mean, s.Median, s.StdDev, s.Min, s.Max)
}

// Point is one (queueing delay, throughput) observation from a single
// simulation run of one scheme, as plotted in Figures 4–9.
type Point struct {
	DelayMs        float64
	ThroughputMbps float64
}

// Ellipse is the 1-sigma (or k-sigma) contour of the maximum-likelihood 2-D
// Gaussian fit to a cloud of Points, matching the ellipses drawn in the
// paper's throughput–delay plots. Narrower ellipses indicate a scheme whose
// users see more consistent (fairer) performance.
type Ellipse struct {
	// CenterDelay and CenterThroughput are the sample means.
	CenterDelay, CenterThroughput float64
	// SemiAxisA and SemiAxisB are the semi-axis lengths (k·sqrt(eigenvalue)).
	SemiAxisA, SemiAxisB float64
	// AngleRad is the rotation of the major axis from the delay axis.
	AngleRad float64
	// Sigma is the contour multiple requested (1 for 1-σ, 0.5 for ½-σ).
	Sigma float64
}

// FitEllipse computes the k-sigma covariance ellipse of the points. With
// fewer than two points the ellipse degenerates to the single observation.
func FitEllipse(points []Point, sigma float64) Ellipse {
	e := Ellipse{Sigma: sigma}
	if len(points) == 0 {
		return e
	}
	var mx, my float64
	for _, p := range points {
		mx += p.DelayMs
		my += p.ThroughputMbps
	}
	n := float64(len(points))
	mx /= n
	my /= n
	e.CenterDelay, e.CenterThroughput = mx, my
	if len(points) < 2 {
		return e
	}
	var sxx, syy, sxy float64
	for _, p := range points {
		dx := p.DelayMs - mx
		dy := p.ThroughputMbps - my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	sxx /= n
	syy /= n
	sxy /= n
	// Eigen-decomposition of the 2x2 covariance matrix.
	tr := sxx + syy
	det := sxx*syy - sxy*sxy
	disc := math.Sqrt(math.Max(0, tr*tr/4-det))
	l1 := tr/2 + disc
	l2 := tr/2 - disc
	if l2 < 0 {
		l2 = 0
	}
	e.SemiAxisA = sigma * math.Sqrt(l1)
	e.SemiAxisB = sigma * math.Sqrt(l2)
	if sxy == 0 {
		if sxx >= syy {
			e.AngleRad = 0
		} else {
			e.AngleRad = math.Pi / 2
		}
	} else {
		e.AngleRad = math.Atan2(l1-sxx, sxy)
	}
	return e
}

// MedianPoint returns the per-axis median of a point cloud: the summary
// circle plotted for each scheme in Figures 4–9.
func MedianPoint(points []Point) Point {
	if len(points) == 0 {
		return Point{}
	}
	delays := make([]float64, len(points))
	tputs := make([]float64, len(points))
	for i, p := range points {
		delays[i] = p.DelayMs
		tputs[i] = p.ThroughputMbps
	}
	return Point{DelayMs: Median(delays), ThroughputMbps: Median(tputs)}
}
