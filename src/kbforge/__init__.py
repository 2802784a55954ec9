"""Knowledge-base population from raw text: entity linking, bootstrapped
span recognition, distantly supervised relation extraction, and KB
enrichment, built on a small numpy autodiff core."""

__version__ = "0.1.0"

from .kb import Entity, KnowledgeBase, Triple, build_fact_type_templates, load_kb
from .corpus import Gazetteer, Sentence, Span, Token, build_gazetteer, ingest_corpus
from .embeddings import EmbeddingTable, SkipGramConfig, train_joint_embeddings, train_node_embeddings
from .linker import ContextLinkerModel, ELConfig, GazetteerRecognizer, link, link_sentence, subgraph_link
from .datagen import Bag, BootstrapConfig, DistantSupervisionConfig, bootstrap_linked_corpus, distant_supervision
from .relations import REConfig, REModel, extract, train_re, validate_triple
from .metrics import MetricsReport, eval_entity_linker, eval_relation_extractor, triple_precision
from .pipeline import PipelineConfig, PipelineRunner, load_config, run_pipeline
