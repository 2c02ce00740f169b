"""Query-driven multi-service WSN routing protocol and its simulator."""
