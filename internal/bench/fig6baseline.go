package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"neurdb/internal/aiengine"
	"neurdb/internal/armnet"
	"neurdb/internal/models"
	"neurdb/internal/nn"
	"neurdb/internal/rel"
)

// BaselineTrain reproduces the paper's PostgreSQL+P baseline: an external
// AI runtime that loads data from the database in batches. Each batch goes
// through the classic client path — the server serializes rows to the text
// wire format, the client parses the text back into tensors — and the loop
// is fully synchronous: no streaming, no overlap between data preparation
// and training. The delta against aiengine.Engine.Train is exactly the
// paper's "in-database AI ecosystem vs. bolted-on runtime" comparison
// (Fig. 6).
func BaselineTrain(spec models.Spec, cfg aiengine.TrainConfig, src aiengine.RowBatchSource, feat aiengine.Featurizer) (*aiengine.TrainOutcome, error) {
	model := armnet.New(spec.Fields, spec.Vocab, spec.EmbDim, spec.Hidden, spec.Classification, spec.Seed)
	lr := cfg.LR
	if lr == 0 {
		lr = 0.01
	}
	opt := nn.NewAdam(lr)
	out := &aiengine.TrainOutcome{}
	start := time.Now()
	for {
		rows, ok := src.Next()
		if !ok {
			break
		}
		// Server side: encode the result set as text (one line per row,
		// comma-separated), the way a driver receives it.
		text := encodeRowsText(rows)
		// Client side: parse the text back into rows, then featurize.
		parsed, err := decodeRowsText(text, len(rows[0]))
		if err != nil {
			return nil, fmt.Errorf("bench: baseline decode: %w", err)
		}
		x, y := feat(parsed)
		loss := model.TrainBatch(x, y, opt)
		out.Losses = append(out.Losses, loss)
		out.Batches++
		out.Samples += len(rows)
	}
	out.Duration = time.Since(start)
	if out.Duration > 0 {
		out.Throughput = float64(out.Samples) / out.Duration.Seconds()
	}
	return out, nil
}

// encodeRowsText renders rows in a psql-like text format.
func encodeRowsText(rows []rel.Row) string {
	var sb strings.Builder
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte(',')
			}
			switch v.Type() {
			case rel.TypeNull:
				sb.WriteString("\\N")
			case rel.TypeBool:
				if v.AsBool() {
					sb.WriteString("t")
				} else {
					sb.WriteString("f")
				}
			default:
				sb.WriteString(v.String())
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// decodeRowsText parses the text format back into rows (numbers become
// floats, the lossy-but-typical driver behaviour).
func decodeRowsText(text string, arity int) ([]rel.Row, error) {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	out := make([]rel.Row, 0, len(lines))
	for _, line := range lines {
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != arity {
			return nil, fmt.Errorf("row arity %d, want %d", len(fields), arity)
		}
		row := make(rel.Row, len(fields))
		for i, f := range fields {
			switch f {
			case "\\N":
				row[i] = rel.Null()
			case "t":
				row[i] = rel.Bool(true)
			case "f":
				row[i] = rel.Bool(false)
			default:
				x, err := strconv.ParseFloat(f, 64)
				if err != nil {
					row[i] = rel.Text(f)
				} else {
					row[i] = rel.Float(x)
				}
			}
		}
		out = append(out, row)
	}
	return out, nil
}
