"""Compress a fine-tuned BERT model without retraining (Table III workflow).

Run with:  python examples/compress_fine_tuned_model.py

Fine-tunes a tiny BERT on the synthetic MNLI task (a couple of minutes on one
CPU core), then applies GOBO and the baseline quantizers to the *frozen*
checkpoint and compares accuracy and compression — the paper's central
use case: quantization minutes after fine-tuning, no quantization-aware
retraining.
"""

from repro.core import quantize_model, select_parameters
from repro.data import generate_mnli
from repro.models import build_model, get_config
from repro.quant import Q8BertQuantizer, QBertQuantizer
from repro.training import Trainer, evaluate


def main() -> None:
    config = get_config("tiny-bert-base")
    splits = generate_mnli(num_train=2000, num_eval=400, rng=0)

    print("fine-tuning tiny-bert-base on synthetic MNLI ...")
    model = build_model(config, task="classification", num_labels=3, rng=1)
    Trainer(model, lr=1e-3, batch_size=32, rng=2).fit(splits.train, epochs=5)
    baseline = evaluate(model, splits.eval)
    print(f"baseline accuracy: {baseline * 100:.2f}%\n")

    probe = build_model(config, task="classification", num_labels=3, rng=1)

    # GOBO at 3 and 4 bits (4-bit embeddings, as in Table III).
    for bits in (3, 4):
        quantized = quantize_model(model, weight_bits=bits, embedding_bits=4)
        quantized.apply_to(probe)
        score = evaluate(probe, splits.eval)
        print(
            f"GOBO {bits}-bit: accuracy {score * 100:.2f}% "
            f"(error {(baseline - score) * 100:+.2f}%), "
            f"CR {quantized.model_compression_ratio():.2f}x on this model, "
            f"outliers {quantized.outlier_fraction() * 100:.3f}%"
        )

    # Baselines through the same engine and result type.
    selection = select_parameters(model)
    state = model.state_dict()
    for quantizer in (Q8BertQuantizer(), QBertQuantizer(weight_bits=3)):
        quantized = quantizer.quantize(state, selection.fc_names, selection.embedding_names)
        quantized.apply_to(probe)
        score = evaluate(probe, splits.eval)
        print(
            f"{quantizer.name}: accuracy {score * 100:.2f}% "
            f"(error {(baseline - score) * 100:+.2f}%), "
            f"CR {quantized.model_compression_ratio():.2f}x on this model"
        )


if __name__ == "__main__":
    main()
