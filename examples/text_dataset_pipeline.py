"""Text-dataset pipeline: save, reload, store, preview.

Walks the import path the paper's setup implies (dump -> database ->
schema graph -> previews) with this package's dataset files:

1. generate the architecture domain and save it as a TSV triple file;
2. reload the file into an entity graph (its rows decode through the
   triple codec, ``repro.model.triples``);
3. build a binary ``.rgs`` store from the reloaded graph and open it;
4. discover and render a preview on the graph the store materializes.

Run:  python examples/text_dataset_pipeline.py
"""

import tempfile
from pathlib import Path

from repro import SchemaGraph, discover_preview, render_preview
from repro.datasets import (
    graph_fingerprint,
    load_domain,
    load_domain_file,
    save_domain,
)
from repro.store import build_store, open_store


def main():
    graph = load_domain("architecture")
    with tempfile.TemporaryDirectory() as tmp:
        text_path = Path(tmp) / "architecture.tsv"
        rows = save_domain(graph, text_path)
        print(f"saved {rows} distinct triple rows to {text_path.name}")

        reloaded = load_domain_file(text_path, name="architecture")
        assert graph_fingerprint(reloaded) == graph_fingerprint(graph)
        schema = SchemaGraph.from_entity_graph(reloaded)
        print(f"reloaded {reloaded.stats()}; schema {schema.stats()}")

        store_path = Path(tmp) / "architecture.rgs"
        size = build_store(reloaded, store_path)
        with open_store(store_path) as store:
            print(f"stored {size} bytes, fingerprint {store.fingerprint}\n")
            stored = store.entity_graph()

        result = discover_preview(stored, k=3, n=7, key_scorer="random_walk")
        print(f"preview score={result.score:.4g} ({result.algorithm}):\n")
        print(render_preview(result.preview, stored, sample_size=3))


if __name__ == "__main__":
    main()
